package network

import (
	"testing"
	"testing/quick"

	"highradix/internal/flit"
	"highradix/internal/sim"
)

// TestShuffleIsPermutation checks that the inter-stage wiring is a
// permutation of the wire positions.
func TestShuffleIsPermutation(t *testing.T) {
	cl, err := NewClos(Config{Radix: 4, Digits: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := cl.Terminals()
	seen := make([]bool, n)
	for w := 0; w < n; w++ {
		s := cl.shuffle(w)
		if s < 0 || s >= n || seen[s] {
			t.Fatalf("shuffle(%d) = %d not a permutation", w, s)
		}
		seen[s] = true
	}
}

// TestShuffleInverse checks that shuffle rotates digits: Digits
// applications rotate a position's Digits base-k digits back into
// place, so Digits-1 of them invert one.
func TestShuffleInverse(t *testing.T) {
	cl, err := NewClos(Config{Radix: 4, Digits: 3})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < cl.Terminals(); w++ {
		if back := cl.shuffle(cl.shuffle(cl.shuffle(w))); back != w {
			t.Fatalf("shuffle^3(%d) = %d", w, back)
		}
	}
}

// TestLinkFeederInverse checks, for every topology family, that the
// wiring is one-to-one — a brute-force search finds exactly one output
// or terminal feeding each router input — and that the engine's feeder
// table inverts Link: following any router output to its downstream
// input and asking the engine who feeds that input names the original
// output. sendCreditUpstream relies on exactly this identity.
func TestLinkFeederInverse(t *testing.T) {
	for _, topo := range []Topology{
		mustClos(t, Config{Radix: 4, Digits: 2}),
		mustClos(t, Config{Radix: 4, Digits: 3}),
		mustTorus(t, TorusConfig{X: 7, Y: 1}),
		mustTorus(t, TorusConfig{X: 3, Y: 4}),
	} {
		_, feeders := NewNetwork(topo, 1).WiringTables()
		ports := topo.Ports()
		for r := 0; r < topo.Routers(); r++ {
			for p := 0; p < ports; p++ {
				if fs := FeedersOf(topo, r, p); len(fs) != 1 {
					t.Fatalf("%s: input %d of router %d fed by %+v", topo.Name(), p, r, fs)
				}
				l := topo.Link(r, p)
				if l.Router < 0 {
					if l.Terminal < 0 || l.Terminal >= topo.Terminals() {
						t.Fatalf("%s: Link(%d,%d) ejects at bad terminal %d", topo.Name(), r, p, l.Terminal)
					}
					continue
				}
				if back := feeders[l.Router*ports+l.Port]; back != (Link{Router: r, Port: p}) {
					t.Fatalf("%s: feeder of Link(%d,%d) = %+v", topo.Name(), r, p, back)
				}
			}
		}
		for term := 0; term < topo.Terminals(); term++ {
			r, p := topo.Entry(term)
			if fd := feeders[r*ports+p]; fd != (Link{Router: -1, Terminal: term}) {
				t.Fatalf("%s: Entry(%d) input not fed by its terminal: %+v", topo.Name(), term, fd)
			}
		}
	}
}

func mustClos(t *testing.T, cfg Config) *Clos {
	t.Helper()
	c, err := NewClos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustTorus(t *testing.T, cfg TorusConfig) *Torus {
	t.Helper()
	g, err := NewTorus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRoutingReachesDestination drives one packet between every
// (src, dst) pair of a small Clos and relies on the Step routine's
// internal invariant panic plus explicit delivery checks. This is the
// proof that the digit-schedule routing composes with the shuffle
// wiring.
func TestRoutingReachesDestination(t *testing.T) {
	cfg := Config{Radix: 4, Digits: 2, VCs: 2, BufDepth: 4}
	nw, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.Terminals()
	var now int64
	var id uint64
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			id++
			f := flit.MakePacket(id, src, dst, 0, 1, now, false)[0]
			for !nw.CanAccept(src, 0) {
				nw.Step(now)
				now++
			}
			nw.Accept(now, f)
			delivered := false
			for i := 0; i < 500 && !delivered; i++ {
				nw.Step(now)
				now++
				for _, e := range nw.Ejected() {
					if e.PacketID == id {
						if e.Dst != dst {
							t.Fatalf("packet %d->%d delivered with Dst=%d", src, dst, e.Dst)
						}
						delivered = true
					}
				}
			}
			if !delivered {
				t.Fatalf("packet %d->%d not delivered", src, dst)
			}
		}
	}
}

// TestConservationUnderLoad injects a batch of random packets and
// verifies every one is delivered exactly once with the expected hop
// count.
func TestConservationUnderLoad(t *testing.T) {
	cfg := Config{Radix: 4, Digits: 3, VCs: 2, BufDepth: 4}
	nw, err := New(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.Terminals()
	wantHops := cfg.WithDefaults().Stages()
	rng := sim.NewRNG(9)
	const packets = 500
	type pend struct {
		src int
		f   *flit.Flit
	}
	var queue []pend
	for i := 0; i < packets; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		queue = append(queue, pend{src: src, f: flit.MakePacket(uint64(i+1), src, dst, 0, 1, 0, false)[0]})
	}
	delivered := map[uint64]bool{}
	var now int64
	for now = 0; now < 100000; now++ {
		rest := queue[:0]
		for _, p := range queue {
			injected := false
			for vc := 0; vc < cfg.VCs; vc++ {
				if nw.CanAccept(p.src, vc) {
					p.f.VC = vc
					nw.Accept(now, p.f)
					injected = true
					break
				}
			}
			if !injected {
				rest = append(rest, p)
			}
		}
		queue = rest
		nw.Step(now)
		for _, f := range nw.Ejected() {
			if delivered[f.PacketID] {
				t.Fatalf("packet %d delivered twice", f.PacketID)
			}
			delivered[f.PacketID] = true
			if f.Hops != wantHops {
				t.Fatalf("packet %d took %d hops, want %d", f.PacketID, f.Hops, wantHops)
			}
		}
		if len(delivered) == packets && nw.InFlight() == 0 && len(queue) == 0 {
			break
		}
	}
	if len(delivered) != packets {
		t.Fatalf("delivered %d of %d packets", len(delivered), packets)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Radix: 64}.WithDefaults()
	if c.Digits != 2 || c.Stages() != 3 || c.Terminals() != 4096 {
		t.Fatalf("radix-64 defaults: %+v", c)
	}
	c16 := Config{Radix: 16}.WithDefaults()
	if c16.Digits != 3 || c16.Stages() != 5 || c16.Terminals() != 4096 {
		t.Fatalf("radix-16 defaults: %+v", c16)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Radix: 1},
		{Radix: 4, Digits: 9},
		{Radix: 4, Digits: 2, VCs: -1},
	}
	for i, c := range bad {
		cc := c.WithDefaults()
		cc.Radix = c.Radix // WithDefaults may overwrite zero fields only
		if c.Radix != 0 {
			if err := cc.Validate(); err == nil {
				t.Errorf("bad config %d validated: %+v", i, cc)
			}
		}
	}
}

func TestRoutePortDescentDigits(t *testing.T) {
	cl, err := NewClos(Config{Radix: 4, Digits: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Descent stages are d-1..2d-2 = 2,3,4 picking digits 2,1,0. A
	// stage-st router is any r in [st*rpl, (st+1)*rpl); the routing key
	// is irrelevant during the descent.
	rpl := cl.Routers() / cl.Config().Stages()
	port := func(st, dst int) int {
		p, _ := cl.NextHop(st*rpl, 0, dst, 0, 0)
		return p
	}
	err = quick.Check(func(d uint16) bool {
		dst := int(d) % cl.Terminals()
		return port(2, dst) == dst/16 &&
			port(3, dst) == (dst/4)%4 &&
			port(4, dst) == dst%4
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNetbenchRun(t *testing.T) {
	res, err := Run(Options{
		Net:           Config{Radix: 4, Digits: 2},
		Load:          0.3,
		WarmupCycles:  300,
		MeasureCycles: 600,
		Seed:          5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.Packets == 0 {
		t.Fatalf("small net at 30%%: %+v", res)
	}
	if res.AvgHops != 3 {
		t.Fatalf("avg hops %v, want 3 (every Clos path crosses all stages)", res.AvgHops)
	}
}

// TestRunRejectsBadLoads: a load no terminal can offer, or phases no run
// can have, are an error, not a run (testbench.Run has the same test
// against the same checks).
func TestRunRejectsBadLoads(t *testing.T) {
	for name, bad := range map[string]func(o *Options){
		"negative load":            func(o *Options) { o.Load = -0.5 },
		"load over 1 packet/cycle": func(o *Options) { o.Load = 8 },
		"negative packet length":   func(o *Options) { o.PktLen = -2 },
		"negative warmup":          func(o *Options) { o.WarmupCycles = -100 },
		"negative measure":         func(o *Options) { o.MeasureCycles = -50 },
		"negative drain":           func(o *Options) { o.DrainCycles = -1 },
	} {
		o := Options{Net: Config{Radix: 4, Digits: 2}, Load: 0.3, WarmupCycles: 50, MeasureCycles: 100}
		bad(&o)
		if _, err := Run(o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestNetworkLatencyRisesWithLoad(t *testing.T) {
	base := Options{
		Net:           Config{Radix: 8, Digits: 2},
		WarmupCycles:  400,
		MeasureCycles: 800,
		Seed:          6,
	}
	lo := base
	lo.Load = 0.1
	hi := base
	hi.Load = 0.7
	a, err := Run(lo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(hi)
	if err != nil {
		t.Fatal(err)
	}
	if b.AvgLatency <= a.AvgLatency {
		t.Fatalf("latency flat with load: %.1f vs %.1f", a.AvgLatency, b.AvgLatency)
	}
}

// TestWormholeMultiFlit injects multi-flit packets and verifies
// delivery, per-packet flit ordering at the destination, and that
// flits of different packets never interleave on arrival within one
// (terminal, packet) stream.
func TestWormholeMultiFlit(t *testing.T) {
	res, err := Run(Options{
		Net:           Config{Radix: 4, Digits: 2},
		Load:          0.4,
		PktLen:        5,
		WarmupCycles:  400,
		MeasureCycles: 800,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 || res.Saturated {
		t.Fatalf("wormhole run: %+v", res)
	}
	// A 5-flit packet cannot beat 5 serialization slots.
	if res.AvgLatency < 5 {
		t.Fatalf("latency %v below serialization floor", res.AvgLatency)
	}
}

// TestWormholeOrdering drives explicit multi-flit packets and checks
// sequence order per packet at ejection.
func TestWormholeOrdering(t *testing.T) {
	cfg := Config{Radix: 4, Digits: 2, VCs: 2, BufDepth: 4}
	nw, err := New(cfg, 12)
	if err != nil {
		t.Fatal(err)
	}
	n := nw.Terminals()
	rng := sim.NewRNG(12)
	const packets, pktLen = 120, 4
	type src struct {
		q     []*flit.Flit
		curVC int
	}
	srcs := make([]src, n)
	for i := range srcs {
		srcs[i].curVC = -1
	}
	for pid := 1; pid <= packets; pid++ {
		s, d := rng.Intn(n), rng.Intn(n)
		srcs[s].q = append(srcs[s].q, flit.MakePacket(uint64(pid), s, d, 0, pktLen, 0, false)...)
	}
	nextSeq := map[uint64]int{}
	done := 0
	for now := int64(0); now < 200000 && done < packets; now++ {
		for ti := range srcs {
			s := &srcs[ti]
			if len(s.q) == 0 {
				continue
			}
			f := s.q[0]
			vc := s.curVC
			if f.Head {
				vc = -1
				for c := 0; c < cfg.VCs; c++ {
					if nw.CanAccept(ti, c) {
						vc = c
						break
					}
				}
				if vc < 0 {
					continue
				}
				s.curVC = vc
			} else if !nw.CanAccept(ti, vc) {
				continue
			}
			s.q = s.q[1:]
			f.VC = vc
			nw.Accept(now, f)
			if f.Tail {
				s.curVC = -1
			}
		}
		nw.Step(now)
		for _, f := range nw.Ejected() {
			if f.Seq != nextSeq[f.PacketID] {
				t.Fatalf("packet %d flit seq %d arrived, want %d", f.PacketID, f.Seq, nextSeq[f.PacketID])
			}
			nextSeq[f.PacketID]++
			if f.Tail {
				if nextSeq[f.PacketID] != pktLen {
					t.Fatalf("packet %d completed with %d flits", f.PacketID, nextSeq[f.PacketID])
				}
				done++
			}
		}
	}
	if done != packets {
		t.Fatalf("delivered %d of %d packets", done, packets)
	}
}
