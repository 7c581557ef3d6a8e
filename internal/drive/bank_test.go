package drive

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"highradix/internal/flit"
	"highradix/internal/sim"
	"highradix/internal/traffic"
)

// pipe is a scripted Device: every (port, VC) accepts unless the test has
// blocked it, and a flit is delivered latency cycles after it was
// accepted. It logs what the bank asked of it.
type pipe struct {
	latency int64
	blocked map[[2]int]bool
	flying  []*flit.Flit // in acceptance order; InjectedAt is the acceptance cycle
	out     []*flit.Flit
	asked   []int    // ports CanAccept was called for
	took    []string // "cycle src/vc pkt.seq" per accepted flit
	steps   int
}

func (d *pipe) CanAccept(port, vc int) bool {
	d.asked = append(d.asked, port)
	return !d.blocked[[2]int{port, vc}]
}

func (d *pipe) Accept(now int64, f *flit.Flit) {
	if d.blocked[[2]int{f.Src, f.VC}] {
		panic("accepted on a blocked VC")
	}
	f.InjectedAt = now
	d.flying = append(d.flying, f)
	d.took = append(d.took, fmt.Sprintf("%d %d/%d %d.%d", now, f.Src, f.VC, f.PacketID, f.Seq))
}

func (d *pipe) Step(now int64) {
	d.steps++
	d.out = d.out[:0]
	d.flying = slices.DeleteFunc(d.flying, func(f *flit.Flit) bool {
		if f.InjectedAt+d.latency > now {
			return false
		}
		d.out = append(d.out, f)
		return true
	})
}

func (d *pipe) Ejected() []*flit.Flit { return d.out }
func (d *pipe) InFlight() int         { return len(d.flying) }

func (d *pipe) NextWake(now int64) int64 {
	if len(d.flying) == 0 {
		return sim.NoWake
	}
	return max(now+1, d.flying[0].InjectedAt+d.latency)
}

// testIDs are the two caller-specific inputs of a bank, network style:
// seeds and packet ids that depend on the source alone, so they commute
// across a split.
func testIDs(c BankConfig) BankConfig {
	c.Seed = func(id int) uint64 { return 0x9e3779b97f4a7c15 * uint64(id+1) }
	c.PacketID = func(src int, seq uint32) uint64 { return uint64(src+1)<<32 | uint64(seq) }
	return c
}

// TestSourceRecordSize: a source is one cache line, its front packet
// inline; what a backlog needs lies behind a pointer.
func TestSourceRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(source{}); got > 64 {
		t.Errorf("source is %d bytes, want <= 64", got)
	}
}

// TestBankInjectionChannel walks one scripted scenario through the
// injection scan: three sources' recorded packets, VCs blocked and freed
// by the script, and the exact flits expected to cross each cycle.
func TestBankInjectionChannel(t *testing.T) {
	// Packet ids: 1 = three flits at source 0, 2 = one flit at source 0,
	// 3 = two flits at source 1, 4 = one flit at source 2 in cycle 6.
	trace := traffic.NewTrace([]traffic.TraceEntry{
		{Cycle: 0, Src: 0, Dst: 1, Len: 3}, {Cycle: 0, Src: 0, Dst: 2, Len: 1},
		{Cycle: 0, Src: 1, Dst: 0, Len: 2}, {Cycle: 6, Src: 2, Dst: 0, Len: 1},
	})
	var pktID uint64
	cfg := BankConfig{
		Workload: Workload{Trace: trace},
		Sources:  3, VCs: 3, Ser: 2,
		Seed:     func(int) uint64 { return 1 },
		PacketID: func(int, uint32) uint64 { pktID++; return pktID },
	}
	b := NewBank(cfg)
	d := &pipe{latency: 1, blocked: map[[2]int]bool{}}
	block := func(port int, vcs ...int) map[[2]int]bool {
		m := map[[2]int]bool{}
		for _, vc := range vcs {
			m[[2]int{port, vc}] = true
		}
		return m
	}
	for now, step := range []struct {
		blocked  map[[2]int]bool
		took     []string
		backlog  int64
		gen, lab int64
		curVC    [3]int // after the cycle
		vcPtr    [3]int
	}{
		// Heads take the VC at their pointer; the pointer stays put.
		0: {took: []string{"0 0/0 1.0", "0 1/0 3.0"}, backlog: 4, gen: 6, lab: 3, curVC: [3]int{0, 0, -1}},
		// A channel carries one flit per Ser = 2 cycles.
		1: {backlog: 4, gen: 6, lab: 3, curVC: [3]int{0, 0, -1}},
		// Refused mid-body, packet 1 waits on VC 0 though 1 and 2 are free;
		// packet 3's tail moves source 1's pointer past its VC.
		2: {blocked: block(0, 0), took: []string{"2 1/0 3.1"}, backlog: 3, gen: 6, lab: 3, curVC: [3]int{0, -1, -1}, vcPtr: [3]int{0, 1, 0}},
		// A refusal does not occupy the channel: the body crosses next cycle.
		3: {took: []string{"3 0/0 1.1"}, backlog: 2, gen: 6, lab: 3, curVC: [3]int{0, -1, -1}, vcPtr: [3]int{0, 1, 0}},
		4: {backlog: 2, gen: 6, lab: 3, curVC: [3]int{0, -1, -1}, vcPtr: [3]int{0, 1, 0}},
		5: {took: []string{"5 0/0 1.2"}, backlog: 1, gen: 6, lab: 3, curVC: [3]int{-1, -1, -1}, vcPtr: [3]int{1, 1, 0}},
		// Outside the window: generated, not labeled. Source 2 injects at once.
		6: {took: []string{"6 2/0 4.0"}, backlog: 1, gen: 7, lab: 3, curVC: [3]int{-1, -1, -1}, vcPtr: [3]int{1, 1, 1}},
		// A head that finds no VC leaves the source between packets.
		7: {blocked: block(0, 0, 1, 2), backlog: 1, gen: 7, lab: 3, curVC: [3]int{-1, -1, -1}, vcPtr: [3]int{1, 1, 1}},
		// The search starts at the pointer and wraps: 1, 2, then 0.
		8: {blocked: block(0, 1, 2), took: []string{"8 0/0 2.0"}, backlog: 0, gen: 7, lab: 3, curVC: [3]int{-1, -1, -1}, vcPtr: [3]int{1, 1, 1}},
		9: {gen: 7, lab: 3, curVC: [3]int{-1, -1, -1}, vcPtr: [3]int{1, 1, 1}},
	} {
		now := int64(now)
		d.blocked, d.took = step.blocked, nil
		b.Generate(now, now < 6)
		b.InjectAll(now, d, nil)
		if !slices.Equal(d.took, step.took) {
			t.Errorf("cycle %d: injected %q, want %q", now, d.took, step.took)
		}
		if b.Backlog() != step.backlog || b.GenFlits() != step.gen || b.InjectedLabeled() != step.lab {
			t.Errorf("cycle %d: backlog/generated/labeled = %d/%d/%d, want %d/%d/%d", now,
				b.Backlog(), b.GenFlits(), b.InjectedLabeled(), step.backlog, step.gen, step.lab)
		}
		for id, s := range b.srcs {
			if int(s.curVC) != step.curVC[id] || int(s.vcPtr) != step.vcPtr[id] {
				t.Errorf("cycle %d source %d: curVC %d vcPtr %d, want %d and %d", now, id, s.curVC, s.vcPtr, step.curVC[id], step.vcPtr[id])
			}
		}
	}
	// A recorded source reports its next entry whether or not synthetic
	// generation is live, and nothing once exhausted. The position is the
	// bank's: a second bank over the same trace starts at its first entry.
	if at := NewBank(cfg).NextGen(-1, false); at != 0 {
		t.Errorf("NextGen before the trace's first entry = %d, want 0", at)
	}
	if at := b.NextGen(6, true); at != sim.NoWake {
		t.Errorf("NextGen of an exhausted trace = %d, want NoWake", at)
	}
}

// TestBankTraceReplay: a bank walks the trace it is given with an index
// of its own — a call generates the entries at or before its cycle and
// not yet generated, an exhausted replay names no next cycle, and a
// second bank over the same trace, which the first left untouched,
// replays it from the start.
func TestBankTraceReplay(t *testing.T) {
	trace := traffic.NewTrace([]traffic.TraceEntry{
		{Cycle: 2, Src: 0, Dst: 1, Len: 1},
		{Cycle: 2, Src: 1, Dst: 0, Len: 1},
		{Cycle: 5, Src: 0, Dst: 2, Len: 1},
	})
	cfg := testIDs(BankConfig{Workload: Workload{Trace: trace}, Sources: 3, VCs: 1, Ser: 1})
	b := NewBank(cfg)
	for _, step := range []struct{ now, gen, next int64 }{
		{now: 1, gen: 0, next: 2},
		{now: 2, gen: 2, next: 5},
		{now: 4, gen: 2, next: 5},
		{now: 9, gen: 3, next: sim.NoWake}, // the entry of cycle 5, late
	} {
		b.Generate(step.now, false)
		if got, next := b.GenFlits(), b.NextGen(step.now, false); got != step.gen || next != step.next {
			t.Fatalf("after Generate(%d): %d packets generated, next at %d; want %d and %d", step.now, got, next, step.gen, step.next)
		}
	}
	again := NewBank(cfg)
	if again.Generate(10, false); again.GenFlits() != 3 {
		t.Fatalf("a second bank over the same trace generated %d of its 3 packets", again.GenFlits())
	}
}

// workloads are the three synthetic generators.
var workloads = map[string]Workload{
	"percycle":        {Rate: 0.3, PktLen: 2},
	"gap":             {Rate: 0.3, PktLen: 2, Injection: traffic.InjGap},
	"percycle/bursty": {Rate: 0.3, PktLen: 2, Bursty: true},
}

// TestBankVisitOrder: generation and injection visit sources in ascending
// order within a cycle, in every mode — the order the digests record and
// the one that makes a jumping run equal its dense twin.
func TestBankVisitOrder(t *testing.T) {
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			var spawned []int
			c := testIDs(BankConfig{Workload: wl, Sources: 70, VCs: 2, Ser: 1})
			id := c.PacketID
			c.PacketID = func(src int, seq uint32) uint64 {
				spawned = append(spawned, src)
				return id(src, seq)
			}
			b, d := NewBank(c), &pipe{latency: 1}
			busy := 0
			for now := int64(0); now < 200; now++ {
				spawned, d.asked = spawned[:0], d.asked[:0]
				b.Generate(now, false)
				b.InjectAll(now, d, nil)
				if !slices.IsSorted(spawned) || !slices.IsSorted(d.asked) {
					t.Fatalf("cycle %d: generated at %v, injected at %v: not ascending", now, spawned, d.asked)
				}
				if len(spawned) > 1 && len(d.asked) > 1 {
					busy++
				}
			}
			if busy < 100 {
				t.Fatalf("vacuous: only %d cycles with several sources generating and injecting", busy)
			}
		})
	}
}

// packets runs banks side by side for cycles cycles, each feeding an
// always-ready device, and returns every packet generated as
// "cycle src id dst", in (cycle, src) order.
func packets(cycles int64, banks ...*Bank) []string {
	type rec struct {
		at       int64
		src, dst int
		id       uint64
	}
	var recs []rec
	d := &pipe{latency: 1}
	for now := int64(0); now < cycles; now++ {
		for _, b := range banks {
			b.Generate(now, false)
			b.InjectAll(now, d, func(_ int64, f *flit.Flit) {
				if f.Head {
					recs = append(recs, rec{f.CreatedAt, f.Src, f.Dst, f.PacketID})
				}
			})
		}
	}
	slices.SortFunc(recs, func(a, b rec) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		if a.src != b.src {
			return a.src - b.src
		}
		return int(a.id - b.id)
	})
	var out []string
	for _, r := range recs {
		out = append(out, packetLine(r.at, r.src, r.id, r.dst))
	}
	return out
}

// packetLine is how the tests below write a generated packet.
func packetLine(at int64, src int, id uint64, dst int) string {
	return fmt.Sprintf("%d %d %#x %d", at, src, id, dst)
}

// TestBankSplit: banks owning a partition of the sources generate between
// them exactly the packets — ids, destinations, cycles — of one bank
// owning them all, which is what lets shard workers each own a bank. An
// owner of nothing generates nothing, and "all" means the same however it
// is spelled.
func TestBankSplit(t *testing.T) {
	const n, cycles = 24, 300
	for name, wl := range workloads {
		t.Run(name, func(t *testing.T) {
			bank := func(owns func(int) bool) *Bank {
				c := testIDs(BankConfig{Workload: wl, Sources: n, VCs: 2, Ser: 1, Owns: owns})
				return NewBank(c)
			}
			whole := packets(cycles, bank(nil))
			if len(whole) < n {
				t.Fatalf("vacuous: %d packets", len(whole))
			}
			if spelled := packets(cycles, bank(func(int) bool { return true })); !slices.Equal(spelled, whole) {
				t.Errorf("a bank owning every source by predicate differs from one with a nil predicate")
			}
			split := packets(cycles,
				bank(func(id int) bool { return id < 7 }),
				bank(func(id int) bool { return id >= 7 && id < 8 }),
				bank(func(int) bool { return false }),
				bank(func(id int) bool { return id >= 8 }))
			if !slices.Equal(split, whole) {
				t.Errorf("split banks generated %d packets, one bank %d; first difference at %d",
					len(split), len(whole), firstDiff(split, whole))
			}

			none := bank(func(int) bool { return false })
			for now := int64(0); now < cycles; now++ {
				none.Generate(now, true)
			}
			if none.GenFlits() != 0 || none.Backlog() != 0 || none.InjectedLabeled() != 0 || len(none.gen.owned) != 0 {
				t.Errorf("a bank owning no source generated %d flits", none.GenFlits())
			}
			if none.gen.gap != nil {
				if at := none.NextGen(0, true); at != sim.NoWake {
					t.Errorf("a gap bank owning no source expects to generate at %d", at)
				}
			}
		})
	}
}

// oracle is generation stated the slow way, the bank's reference. Per
// cycle it is the loop that run-ahead replaced: one draw per owned source
// per cycle in ascending source order, and a destination from the same
// stream on every success. Gap it is each Bernoulli source asking its
// own sampler, on its own stream, for the first injection from cycle 0
// and then from the cycle after each one, every cycle comparing every
// source's answer with the clock in ascending source order.
type oracle struct {
	c       BankConfig
	owned   []int
	rngs    []sim.RNG
	markov  []*traffic.MarkovOnOff
	gaps    []*traffic.BernoulliGap // gap mode, by owned position, with next
	next    []int64                 // the cycle each gap source injects in next
	pattern traffic.Pattern
	seq     []uint32
}

func newOracle(c BankConfig) *oracle {
	o := &oracle{c: c, rngs: make([]sim.RNG, c.Sources), seq: make([]uint32, c.Sources), pattern: traffic.NewUniform(c.Sources)}
	chains := make([]*traffic.MarkovOnOff, c.Sources)
	for id := 0; id < c.Sources; id++ {
		if c.Owns != nil && !c.Owns(id) {
			continue
		}
		o.owned = append(o.owned, id)
		o.rngs[id].Seed(c.Seed(id))
		switch {
		case c.Injection == traffic.InjGap:
			g := traffic.NewBernoulliGap(c.Rate)
			o.gaps, o.next = append(o.gaps, g), append(o.next, g.NextInject(0, &o.rngs[id]))
		case c.Bursty:
			m := traffic.NewMarkovOnOff(c.Rate, traffic.BurstLen)
			o.markov, chains[id] = append(o.markov, m), m
		}
	}
	if c.Bursty {
		o.pattern = traffic.NewBurstPattern(o.pattern, chains)
	}
	return o
}

// generate returns cycle now's packets, a packetLine each.
func (o *oracle) generate(now int64) (out []string) {
	for i, id := range o.owned {
		rng := &o.rngs[id]
		hit := false
		switch {
		case o.gaps != nil:
			hit = o.next[i] == now
		case o.c.Bursty:
			// One cycle of the chain; traffic's own tests hold this to the
			// cycle-by-cycle walk.
			_, hit = o.markov[i].InjectAhead(rng, 1)
		default:
			hit = rng.Bernoulli(o.c.Rate)
		}
		if !hit {
			continue
		}
		o.seq[id]++
		out = append(out, packetLine(now, id, o.c.PacketID(id, o.seq[id]), o.pattern.Dest(id, rng)))
		if o.gaps != nil {
			o.next[i] = o.gaps[i].NextInject(now+1, rng)
		}
	}
	return out
}

// TestBankMatchesPerCycleOracle: knowing a source's next generation cycle
// ahead of time changes no draw, nor does who takes the draws. The bank
// generates the oracle's packets — cycle, source, id, destination —
// whether it is called every cycle or only at the cycles NextGen names,
// which must lie after the one asked about, and whether it draws for
// itself or a producer goroutine draws ahead of it. The per-cycle rows shrink the horizon until nearly every arrival
// crosses a checkpoint, and two traps are in there: a source resuming at
// a checkpoint draws for the checkpoint cycle itself, and a success on
// that very draw generates in that cycle. The gap rows, Bernoulli only,
// have no checkpoints (one horizon serves), so NextGen may name only
// cycles a packet is generated in; their traps are the cycle a source
// samples its next gap from — the one after an injection — and a minimum
// taken while sources are still moving.
func TestBankMatchesPerCycleOracle(t *testing.T) {
	defer func(h int) { horizon = h }(horizon)
	const n = 12
	type row struct {
		name string
		h    int
		rate float64
		inj  traffic.InjMode
	}
	var rows []row
	for _, h := range []int{2, 3, 1024} {
		for _, rate := range []float64{0, 1e-9, 0.001, 1 / float64(h), 0.5, 1} {
			rows = append(rows, row{fmt.Sprintf("horizon=%d/rate=%g", h, rate), h, rate, traffic.InjPerCycle})
		}
	}
	for _, rate := range []float64{0, 1e-9, 0.001, 0.5, 1} {
		rows = append(rows, row{fmt.Sprintf("gap/rate=%g", rate), horizon, rate, traffic.InjGap})
	}
	for _, r := range rows {
		h, rate := r.h, r.rate
		for _, bursty := range []bool{false, true} {
			if bursty && r.inj == traffic.InjGap {
				continue // Markov ON/OFF sources have no gap form
			}
			for part, owns := range map[string]func(int) bool{"all": nil, "some": func(id int) bool { return id%3 != 1 }} {
				t.Run(fmt.Sprintf("%s/bursty=%t/%s", r.name, bursty, part), func(t *testing.T) {
					horizon = h
					cycles := int64(12000)
					if rate >= 0.5 {
						cycles = 1500 // as many packets from fewer cycles
					}
					c := testIDs(BankConfig{
						Workload: Workload{Rate: rate, PktLen: 1, Bursty: bursty, Injection: r.inj},
						Sources:  n, VCs: 2, Ser: 1, Owns: owns,
					})
					var want []string
					for o, now := newOracle(c), int64(0); now < cycles; now++ {
						want = append(want, o.generate(now)...)
					}
					if (len(want) == 0) != (rate < 1e-6) {
						t.Fatalf("vacuous: the oracle generated %d packets", len(want))
					}
					for _, producing := range []bool{false, true} {
						if got := packets(cycles, drawing(t, NewBank(c), producing)); !slices.Equal(got, want) {
							t.Fatalf("producer %t, called every cycle: packet %d of %d differs from the oracle's %d", producing, firstDiff(got, want), len(got), len(want))
						}

						var got []string
						b, d, calls := drawing(t, NewBank(c), producing), &pipe{latency: 1}, 0
						for now := b.NextGen(-1, true); now < cycles; calls++ {
							b.Generate(now, false)
							b.InjectAll(now, d, func(_ int64, f *flit.Flit) {
								got = append(got, packetLine(f.CreatedAt, f.Src, f.PacketID, f.Dst))
							})
							next := b.NextGen(now, true)
							if next <= now {
								t.Fatalf("producer %t: NextGen at cycle %d names cycle %d", producing, now, next)
							}
							now = next
						}
						if !slices.Equal(got, want) {
							t.Fatalf("producer %t, called when NextGen says: packet %d of %d differs from the oracle's %d", producing, firstDiff(got, want), len(got), len(want))
						}
						checkpoints := n * (int(cycles)/h + 1)
						if r.inj == traffic.InjGap {
							checkpoints = 0
						}
						if calls > len(want)+checkpoints {
							t.Errorf("producer %t: %d calls in %d cycles, for %d packets and at most %d checkpoints: NextGen is not skipping the idle ones", producing, calls, cycles, len(want), checkpoints)
						}
					}
				})
			}
		}
	}
	t.Run("pktlen=3/bursty/load=1", func(t *testing.T) {
		horizon = 1024
		const cycles = 3000
		c := testIDs(BankConfig{
			Workload: Workload{Rate: 1.0 / 3, PktLen: 3, Bursty: true},
			Sources:  n, VCs: 2, Ser: 1,
		})
		var want []string
		for o, now := newOracle(c), int64(0); now < cycles; now++ {
			want = append(want, o.generate(now)...)
		}
		for _, producing := range []bool{false, true} {
			checkSourceRecords(t, drawing(t, NewBank(c), producing), cycles, want)
		}
	})
}

// checkSourceRecords runs b for cycles cycles and then injects until its
// backlog is gone, and checks what crossed the channels: every packet
// whole, its flits in order on one VC and back to back at its source;
// heads in the oracle's want; and the front packet refilled from the
// overflow ring behind it at a quarter of the tails or more, and not at
// all of them, so packets moved between a source's inline slot and its
// ring often and some source's queue emptied and refilled inline.
func checkSourceRecords(t *testing.T, b *Bank, cycles int64, want []string) {
	t.Helper()
	d := &pipe{latency: 1}
	var heads []string
	last := make([]*flit.Flit, b.c.Sources) // each source's last flit, a copy
	tails, refills := 0, 0
	inject := func(now int64, f *flit.Flit) {
		p := last[f.Src]
		switch {
		case f.Head:
			if p != nil && !p.Tail {
				t.Fatalf("cycle %d source %d: packet %#x starts before packet %#x's tail", now, f.Src, f.PacketID, p.PacketID)
			}
			heads = append(heads, packetLine(f.CreatedAt, f.Src, f.PacketID, f.Dst))
		case p == nil || p.PacketID != f.PacketID || p.Seq != f.Seq-1 || p.VC != f.VC:
			t.Fatalf("cycle %d source %d: flit %v does not follow %v", now, f.Src, f, p)
		}
		if f.Tail {
			tails++
			if b.srcs[f.Src].queued > 0 {
				refills++
			}
		}
		cp := *f
		last[f.Src] = &cp
	}
	now := int64(0)
	for ; now < cycles; now++ {
		b.Generate(now, false)
		b.InjectAll(now, d, inject)
	}
	for ; b.Backlog() > 0; now++ {
		b.InjectAll(now, d, inject)
	}
	slices.Sort(heads)
	sorted := slices.Clone(want)
	slices.Sort(sorted)
	if !slices.Equal(heads, sorted) {
		t.Fatalf("%d packets injected, the oracle generated %d; first difference at %d", len(heads), len(sorted), firstDiff(heads, sorted))
	}
	if refills*4 < tails || refills == tails {
		t.Errorf("%d of %d tails left a packet to refill the inline slot from the ring, want a quarter or more but not all", refills, tails)
	}
}

// drawing hands b's draws to a producer goroutine, whatever the budget
// says, when producing is set and there are draws to take, and stops it
// when t ends.
func drawing(t *testing.T, b *Bank, producing bool) *Bank {
	if producing {
		defer func(p int) { testProducers = p }(testProducers)
		testProducers = 1
		if !b.startDraws() && b.gen.at < sim.NoWake {
			t.Fatal("no producer started for a bank with draws to take")
		}
		t.Cleanup(b.stopDraws)
	}
	return b
}

func firstDiff(a, b []string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// counted counts the cycles Run simulates of a plant.
type counted struct {
	*Plant
	cycles int
}

func (c *counted) Cycle(now int64, ph Phase, t *Tally) error {
	c.cycles++
	return c.Plant.Cycle(now, ph, t)
}

// TestPlantDenseTwin: a plant jumping idle stretches and skipping
// quiescent steps under Run is event-for-event the plant stepped every
// cycle — draw-for-draw in both injection modes, since one skipped or
// extra draw would move every later packet. At this load every mode,
// per-cycle included, must jump most of the run: a twin that simulates
// the dense run's cycles proves nothing.
func TestPlantDenseTwin(t *testing.T) {
	for name, wl := range workloads {
		for _, audited := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/audited=%t", name, audited), func(t *testing.T) {
				wl := wl
				wl.Rate = 0.003
				run := func(dense bool) (events []string, tally Tally, steps, cycles int) {
					d := &pipe{latency: 9}
					p := &Plant{Dev: d, Bank: NewBank(testIDs(BankConfig{Workload: wl, Sources: 6, VCs: 2, Ser: 3}))}
					p.OnInject = func(now int64, f *flit.Flit) {
						events = append(events, fmt.Sprintf("%d in %#x.%d vc%d", now, f.PacketID, f.Seq, f.VC))
					}
					p.OnDeliver = func(now int64, f *flit.Flit) {
						events = append(events, fmt.Sprintf("%d out %#x.%d -> %d", now, f.PacketID, f.Seq, f.Dst))
					}
					if audited {
						p.Audit = func(_ int64, inFlight int) error {
							if inFlight != len(d.flying) {
								t.Errorf("audit saw %d in flight, device holds %d", inFlight, len(d.flying))
							}
							return nil
						}
					}
					w := &counted{Plant: p}
					tl, err := Run(Config{Warmup: 300, Measure: 4000, Drain: 400, Audited: audited, Dense: dense}, func() World { return w })
					if err != nil {
						t.Fatal(err)
					}
					lat := fmt.Sprint(*tl.Lat)
					tl.Lat, tl.now = nil, 0
					return append(events, lat), *tl, d.steps, w.cycles
				}
				dense, denseTally, denseSteps, denseCycles := run(true)
				got, tally, steps, cycles := run(false)
				if !slices.Equal(got, dense) {
					t.Fatalf("event %d differs from the dense run's (%d vs %d events)", firstDiff(got, dense), len(got), len(dense))
				}
				if tally != denseTally {
					t.Errorf("measured %+v, dense run %+v", tally, denseTally)
				}
				if tally.Labeled < 20 {
					t.Fatalf("vacuous: %d labeled packets", tally.Labeled)
				}
				if int64(denseSteps) != denseTally.Cycles || steps > denseSteps/2 {
					t.Errorf("device stepped %d times in %d cycles, %d when dense: nothing was skipped", steps, tally.Cycles, denseSteps)
				}
				if int64(denseCycles) != denseTally.Cycles || cycles > denseCycles/2 {
					t.Errorf("simulated %d of %d cycles, %d when dense: nothing was jumped", cycles, tally.Cycles, denseCycles)
				}
			})
		}
	}
}
