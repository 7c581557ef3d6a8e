package router_test

import (
	"testing"

	"highradix/internal/flit"
	"highradix/internal/router"
	"highradix/internal/sim"
)

// allConfigs enumerates every variant of every registered architecture
// at a small radix (with shallow buffers, so blocking paths are
// exercised) — the invariant battery covers a new architecture the
// moment it registers.
func allConfigs() map[string]router.Config {
	m := map[string]router.Config{}
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		for _, vt := range d.Variants(16, 2) {
			cfg := vt.Config
			cfg.InputBufDepth = 8
			cfg.XpointBufDepth = 2
			m[vt.Name] = cfg
		}
	}
	return m
}

// driveResult captures one deterministic drive of a router.
type driveResult struct {
	ejections []ejRec
	latencies []int64
}

type ejRec struct {
	pkt  uint64
	seq  int
	port int
	vc   int
}

// drive injects `packets` packets of pktLen flits with destinations from
// rng, enforcing flow control, then drains. It validates conservation,
// destination correctness, per-packet ordering and per-(output,VC)
// packet non-interleaving, and returns the ejection trace for
// determinism checks.
func drive(t *testing.T, cfg router.Config, packets, pktLen int, seed uint64) driveResult {
	t.Helper()
	r, err := router.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	full := r.Config()
	k, v := full.Radix, full.VCs
	rng := sim.NewRNG(seed)

	// Pre-generate per-(input, vc) packet queues so flits of one packet
	// stay contiguous within their VC FIFO.
	pending := make([][]*sim.Queue[*flit.Flit], k)
	var id uint64
	remaining := 0
	for i := 0; i < k; i++ {
		pending[i] = make([]*sim.Queue[*flit.Flit], v)
		for c := 0; c < v; c++ {
			pending[i][c] = sim.NewQueue[*flit.Flit](0)
		}
	}
	for n := 0; n < packets; n++ {
		src := rng.Intn(k)
		dst := rng.Intn(k)
		vc := rng.Intn(v)
		id++
		for _, f := range flit.MakePacket(id, src, dst, vc, pktLen, 0, true) {
			pending[src][vc].MustPush(f)
			remaining++
		}
	}

	type pktState struct {
		nextSeq int
		port    int
	}
	seen := map[uint64]*pktState{}
	// current packet occupying each (output, vc) between head and tail.
	occupying := map[[2]int]uint64{}
	var res driveResult
	ejectedCount := 0

	maxCycles := int64(packets*pktLen)*int64(full.STCycles)*20 + 20000
	for now := int64(0); now < maxCycles; now++ {
		// Inject at most one flit per input per cycle, rotating VCs.
		for i := 0; i < k; i++ {
			for c := 0; c < v; c++ {
				vc := (int(now) + c) % v
				f, ok := pending[i][vc].Peek()
				if !ok || !r.CanAccept(i, vc) {
					continue
				}
				pending[i][vc].MustPop()
				r.Accept(now, f)
				break
			}
		}
		r.Step(now)
		for _, f := range r.Ejected() {
			ejectedCount++
			res.ejections = append(res.ejections, ejRec{pkt: f.PacketID, seq: f.Seq, port: f.Dst, vc: f.VC})
			st := seen[f.PacketID]
			if st == nil {
				st = &pktState{port: f.Dst}
				seen[f.PacketID] = st
			}
			if f.Seq != st.nextSeq {
				t.Fatalf("packet %d flit out of order: seq %d, want %d", f.PacketID, f.Seq, st.nextSeq)
			}
			st.nextSeq++
			key := [2]int{f.Dst, f.VC}
			if f.Head {
				if owner, busy := occupying[key]; busy {
					t.Fatalf("packet %d head ejected on (out %d, vc %d) while packet %d still occupies it",
						f.PacketID, f.Dst, f.VC, owner)
				}
				occupying[key] = f.PacketID
			} else if occupying[key] != f.PacketID {
				t.Fatalf("packet %d body flit interleaved on (out %d, vc %d) owned by %d",
					f.PacketID, f.Dst, f.VC, occupying[key])
			}
			if f.Tail {
				delete(occupying, key)
				res.latencies = append(res.latencies, now-f.CreatedAt)
				if st.nextSeq != pktLen {
					t.Fatalf("packet %d tail after %d flits, want %d", f.PacketID, st.nextSeq, pktLen)
				}
			}
		}
		if ejectedCount == remaining && r.InFlight() == 0 {
			injLeft := 0
			for i := range pending {
				for c := range pending[i] {
					injLeft += pending[i][c].Len()
				}
			}
			if injLeft == 0 {
				return res
			}
		}
	}
	t.Fatalf("drain did not complete: %d of %d flits ejected, %d in flight after %d cycles",
		ejectedCount, remaining, r.InFlight(), maxCycles)
	return res
}

func TestConservationSingleFlit(t *testing.T) {
	for name, cfg := range allConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			drive(t, cfg, 400, 1, 42)
		})
	}
}

func TestConservationMultiFlit(t *testing.T) {
	for name, cfg := range allConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			drive(t, cfg, 120, 5, 43)
		})
	}
}

func TestDeterminism(t *testing.T) {
	for name, cfg := range allConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := drive(t, cfg, 150, 3, 7)
			b := drive(t, cfg, 150, 3, 7)
			if len(a.ejections) != len(b.ejections) {
				t.Fatalf("ejection counts differ: %d vs %d", len(a.ejections), len(b.ejections))
			}
			for i := range a.ejections {
				if a.ejections[i] != b.ejections[i] {
					t.Fatalf("ejection %d differs: %+v vs %+v", i, a.ejections[i], b.ejections[i])
				}
			}
			for i := range a.latencies {
				if a.latencies[i] != b.latencies[i] {
					t.Fatalf("latency %d differs: %d vs %d", i, a.latencies[i], b.latencies[i])
				}
			}
		})
	}
}

// TestConservationRandomized property-tests conservation across random
// seeds and packet lengths for every architecture.
func TestConservationRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for name, cfg := range allConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for trial := 0; trial < 5; trial++ {
				pktLen := 1 + trial%4
				drive(t, cfg, 80, pktLen, uint64(1000+trial))
			}
		})
	}
}

// TestSinglePacketLatency checks zero-load behavior: one packet crosses
// each router within a sane cycle budget and never faster than the
// physical minimum (switch traversal plus one allocation cycle).
func TestSinglePacketLatency(t *testing.T) {
	for name, cfg := range allConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := drive(t, cfg, 1, 3, 99)
			if len(res.latencies) != 1 {
				t.Fatalf("got %d latencies", len(res.latencies))
			}
			lat := res.latencies[0]
			full, _ := router.New(cfg)
			st := int64(full.Config().STCycles)
			// Three flits serialized on the output alone need 3*st
			// cycles; anything faster is a simulation bug.
			if lat < 3*st {
				t.Fatalf("latency %d below physical minimum %d", lat, 3*st)
			}
			if lat > 40*st {
				t.Fatalf("zero-load latency %d implausibly high", lat)
			}
		})
	}
}

func TestFlowControlRejection(t *testing.T) {
	cfg := router.Config{Arch: router.ArchBaseline, Radix: 4, VCs: 1, InputBufDepth: 2}
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill input 0 VC 0 to capacity without stepping.
	for n := 0; n < 2; n++ {
		if !r.CanAccept(0, 0) {
			t.Fatalf("buffer rejected flit %d below capacity", n)
		}
		f := flit.MakePacket(uint64(n+1), 0, 1, 0, 1, 0, false)[0]
		r.Accept(0, f)
	}
	if r.CanAccept(0, 0) {
		t.Fatal("buffer accepted beyond capacity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Accept beyond capacity did not panic")
		}
	}()
	r.Accept(0, flit.MakePacket(3, 0, 1, 0, 1, 0, false)[0])
}

func TestConfigValidation(t *testing.T) {
	bad := []router.Config{
		{Arch: router.ArchHierarchical, Radix: 64, SubSize: 7},          // p does not divide k
		{Arch: router.ArchLowRadix, Radix: 1},                           // radix too small
		{Arch: router.ArchBuffered, XpointBufDepth: -1},                 // negative buffer
		{Arch: router.ArchBuffered, Prioritized: true},                  // prioritization is baseline-only
		{Arch: router.Arch(99)},                                         // unknown arch
		{Arch: router.ArchHierarchical, SubSize: 8, XpointBufDepth: -2}, // negative depth
		{Arch: router.ArchBaseline, STCycles: -4},                       // negative traversal
	}
	for i, cfg := range bad {
		if _, err := router.New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	good := router.Config{}
	r, err := router.New(good)
	if err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	c := r.Config()
	if c.Radix != 64 || c.VCs != 4 || c.STCycles != 4 || c.SubSize != 8 || c.LocalGroup != 8 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

func TestArchNames(t *testing.T) {
	for _, a := range router.Registered() {
		got, err := router.ArchByName(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v: got %v err %v", a, got, err)
		}
	}
	if _, err := router.ArchByName("bogus"); err == nil {
		t.Error("bogus architecture accepted")
	}
	if router.CVA.String() != "CVA" || router.OVA.String() != "OVA" {
		t.Error("VA scheme names wrong")
	}
}

// TestHotOutput drives every packet to one output and checks the output
// serializes correctly: with D flits and STCycles=4, draining takes at
// least 4*D cycles, and everything still arrives.
func TestHotOutput(t *testing.T) {
	for name, base := range allConfigs() {
		cfg := base
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r, err := router.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			full := r.Config()
			k, v := full.Radix, full.VCs
			const perInput = 3
			total := k * perInput
			type pend struct {
				in int
				f  *flit.Flit
			}
			var queue []pend
			var id uint64
			for i := 0; i < k; i++ {
				for n := 0; n < perInput; n++ {
					id++
					f := flit.MakePacket(id, i, k-1, int(id)%v, 1, 0, false)[0]
					queue = append(queue, pend{in: i, f: f})
				}
			}
			got := 0
			var firstEject, lastEject int64 = -1, -1
			for now := int64(0); now < int64(total)*50+5000; now++ {
				rest := queue[:0]
				for _, p := range queue {
					if r.CanAccept(p.in, p.f.VC) {
						r.Accept(now, p.f)
					} else {
						rest = append(rest, p)
					}
				}
				queue = rest
				r.Step(now)
				for _, f := range r.Ejected() {
					if f.Dst != k-1 {
						t.Fatalf("flit ejected at wrong output %d", f.Dst)
					}
					if firstEject < 0 {
						firstEject = now
					}
					lastEject = now
					got++
				}
				if got == total && len(queue) == 0 && r.InFlight() == 0 {
					break
				}
			}
			if got != total {
				t.Fatalf("delivered %d of %d flits to the hot output", got, total)
			}
			minSpan := int64((total - 1) * full.STCycles)
			if lastEject-firstEject < minSpan {
				t.Fatalf("output delivered %d flits in %d cycles; serialization requires >= %d",
					total, lastEject-firstEject, minSpan)
			}
		})
	}
}
