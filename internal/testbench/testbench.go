// Package testbench drives a single router with synthetic traffic using
// the methodology of the paper's Section 4.3: Bernoulli (or Markov
// ON/OFF) injection, a warm-up period without measurement, a labeled
// sample of packets injected during a measurement interval, and a drain
// phase that runs until every labeled packet has been delivered. It
// reports mean packet latency, accepted throughput and saturation.
package testbench

import (
	"fmt"

	"highradix/internal/arb"
	"highradix/internal/check"
	"highradix/internal/drive"
	"highradix/internal/flit"
	"highradix/internal/router"
	"highradix/internal/sim"
	"highradix/internal/stats"
	"highradix/internal/traffic"
)

// Options parameterizes one simulation run.
type Options struct {
	// Router is the configuration of the device under test.
	Router router.Config
	// Pattern supplies destinations; nil means uniform random.
	Pattern traffic.Pattern
	// Trace, when non-nil, replaces synthetic generation entirely: the
	// recorded packets are injected at their recorded cycles (Load,
	// PktLen, Pattern and Bursty are ignored). Entries must fit the
	// router's port range.
	Trace *traffic.Trace
	// Bursty switches injection from Bernoulli to Markov ON/OFF with
	// BurstLen average packets per burst; burst packets share a
	// destination (Table 1).
	Bursty   bool
	BurstLen float64
	// Load is offered load as a fraction of switch capacity
	// (capacity = one flit per port per STCycles cycles).
	Load float64
	// PktLen is packet length in flits (the paper uses 1 and 10).
	PktLen int
	// WarmupCycles, MeasureCycles and DrainCycles size the three phases.
	// DrainCycles bounds the drain; exceeding it marks the run
	// saturated. Zero values take defaults.
	WarmupCycles  int64
	MeasureCycles int64
	DrainCycles   int64
	// SatLatency marks the run saturated when the mean latency of
	// delivered labeled packets exceeds it (cycles). Zero = default.
	SatLatency float64
	// Seed makes the run reproducible.
	Seed uint64
	// Check arms the cycle-level invariant checker (internal/check):
	// the router is wrapped so every event is audited, synthetic
	// injection stops at the end of the measurement window, and the run
	// drains to empty so the checker can verify flit and credit
	// conservation end to end. Any violation is returned as the run's
	// error.
	Check bool
	// NoFastForward forces dense per-cycle stepping: the testbench
	// neither skips quiescent router steps nor jumps time across
	// provably idle stretches. Fast-forwarding is cycle-exact (results
	// are byte-identical either way — TestFastForwardTwin asserts it),
	// so this exists for A/B verification, not correctness.
	NoFastForward bool
	// Injection selects the synthetic source implementation (ignored
	// for trace replays). The default, traffic.InjPerCycle, draws one
	// Bernoulli per source per cycle — the discipline every historical
	// golden was recorded under, which forbids skipping any cycle while
	// injection is live. traffic.InjGap samples each source's next
	// injection cycle directly (same arrival distribution, one draw per
	// event — see traffic.InjGap) and schedules sources on a sim.Wheel,
	// so the run advances straight to the next event across idle
	// stretches: O(events) at low load instead of O(cycles). Gap runs
	// are byte-identical to their own dense twins (NoFastForward with
	// Injection still gap — TestGapFastForwardTwin) and
	// distribution-equivalent, not byte-identical, to per-cycle runs.
	Injection traffic.InjMode
	// OnMeasureStart, when non-nil, is called exactly once, at the first
	// cycle of the measurement window (after construction and warmup).
	// Benchmarks pass testing.B.ResetTimer so ns/op and allocs/op
	// measure steady-state stepping only — at radix 256 the one-time
	// construction of O(k^2) crosspoint state would otherwise dominate
	// the per-op numbers and hide (or fake) steady-state allocations.
	OnMeasureStart func()
}

func (o Options) withDefaults() Options {
	if o.PktLen == 0 {
		o.PktLen = 1
	}
	if o.WarmupCycles == 0 {
		o.WarmupCycles = 3000
	}
	if o.MeasureCycles == 0 {
		o.MeasureCycles = 8000
	}
	if o.DrainCycles == 0 {
		o.DrainCycles = 4 * (o.WarmupCycles + o.MeasureCycles)
	}
	if o.SatLatency == 0 {
		o.SatLatency = 1000
	}
	if o.BurstLen == 0 {
		o.BurstLen = 8
	}
	return o
}

// Result summarizes one run.
type Result struct {
	// Load echoes the offered load.
	Load float64
	// AvgLatency is the mean labeled-packet latency in cycles, from
	// generation (including source queueing) to tail ejection.
	AvgLatency float64
	// P50 and P99 are latency quantiles of the labeled sample.
	P50, P99 float64
	// Throughput is accepted throughput during the measurement window
	// as a fraction of capacity.
	Throughput float64
	// Packets is the number of labeled packets delivered.
	Packets int64
	// Saturated reports that the run did not reach steady state: the
	// drain did not complete or the mean latency diverged.
	Saturated bool
	// RelErr99 is the 99%-confidence relative half-width of the mean
	// latency (the paper keeps this under 3%).
	RelErr99 float64
	// Cycles is the total simulated cycle count.
	Cycles int64
}

// source is the injection machinery in front of one router input: an
// unbounded generation queue, a flit-serialized injection channel, and
// per-packet VC assignment.
// srcFlit pairs a queued flit with its Head bit so the per-cycle
// injection scan tests packet boundaries from the queue's own (warm)
// ring buffer instead of dereferencing a possibly cold flit.
type srcFlit struct {
	f    *flit.Flit
	head bool
}

type source struct {
	// q is embedded by value so the per-cycle injection scan peeks the
	// ring buffer without an extra dereference.
	q       sim.Queue[srcFlit]
	injFree int64              // cycle the injection channel frees
	curVC   int                // VC of the packet currently crossing the channel
	vcPtr   int                // rotating VC assignment pointer
	proc    traffic.Process    // per-cycle mode
	gap     traffic.GapProcess // gap mode
	rng     *sim.RNG
}

// world is the single-router system internal/drive advances: the router
// under test behind its k sources.
type world struct {
	r   router.Router
	chk *check.Checker
	// Every packet's flits come from a per-run free list; ejected flits
	// are recycled (see the contract on router.Router.Ejected), so the
	// steady-state hot path allocates nothing.
	fl *flit.FreeList
	// Sources live in one value slice: the per-cycle scans walk them
	// contiguously instead of chasing a pointer per source. srcAct tracks
	// the ones with a nonempty generation queue so the injection scan
	// walks only them; backlog is the total queued flits.
	srcs    []source
	srcAct  arb.BitVec
	backlog int64
	pattern traffic.Pattern
	trace   *traffic.Trace
	// Gap mode drives generation from a calendar queue of per-source
	// next-injection cycles; onDue generates at one due source.
	wheel *sim.Wheel
	onDue func(id int32)

	pktLen, vcs, st int
	// wakeExact: the architecture vouches that Quiescent/NextWake cover
	// all its per-cycle state (see the quiescence contract in
	// router/core) and the run is not forced dense, so quiescent Steps
	// may be skipped and NextWake relied on.
	wakeExact bool

	now       int64 // the cycle being simulated, for onDue
	measuring bool
	pktID     uint64
	genFlits  int64
	labeled   int64
}

// newWorld validates o (already defaulted) and builds its world.
func newWorld(o Options) (*world, error) {
	w := &world{fl: flit.NewFreeList(), pattern: o.Pattern, trace: o.Trace, pktLen: o.PktLen}
	if o.Check {
		c, err := check.Wrap(o.Router, check.Options{})
		if err != nil {
			return nil, err
		}
		w.r, w.chk = c, c.Checker()
	} else {
		r, err := router.New(o.Router)
		if err != nil {
			return nil, err
		}
		w.r = r
	}
	cfg := w.r.Config()
	k := cfg.Radix
	w.vcs, w.st = cfg.VCs, cfg.STCycles
	w.wakeExact = cfg.Traits().WakeExact && !o.NoFastForward
	if o.Trace == nil {
		if err := drive.CheckLoad(o.Load, w.st, o.PktLen); err != nil {
			return nil, fmt.Errorf("testbench: %w", err)
		}
	} else {
		for _, e := range o.Trace.Entries() {
			if e.Src < 0 || e.Src >= k || e.Dst < 0 || e.Dst >= k {
				return nil, fmt.Errorf("testbench: trace entry %+v outside radix %d", e, k)
			}
		}
		o.Trace.Reset()
	}
	pktRate := o.Load / float64(w.st*o.PktLen)

	master := sim.NewRNG(o.Seed ^ 0x685a2d9cb9a5d1f3)
	// Gap mode replaces the per-cycle Bernoulli/Markov processes with
	// gap-sampled twins. Trace replays have their own event feed
	// (Trace.NextDue) and ignore the mode.
	gap := o.Injection == traffic.InjGap && o.Trace == nil
	w.srcs = make([]source, k)
	w.srcAct = arb.MakeBitVec(k)
	var bursters []traffic.Burster
	for i := range w.srcs {
		s := &w.srcs[i]
		s.q = *sim.NewQueue[srcFlit](0)
		s.curVC = -1
		s.rng = master.Split()
		switch {
		case o.Bursty && gap:
			m := traffic.NewMarkovOnOffGap(pktRate, o.BurstLen)
			bursters = append(bursters, m)
			s.gap = m
		case o.Bursty:
			m := traffic.NewMarkovOnOff(pktRate, o.BurstLen)
			bursters = append(bursters, m)
			s.proc = m
		case gap:
			s.gap = traffic.NewBernoulliGap(pktRate)
		default:
			s.proc = traffic.NewBernoulli(pktRate)
		}
	}
	if w.pattern == nil {
		w.pattern = traffic.NewUniform(k)
	}
	if o.Bursty {
		w.pattern = traffic.NewBurstPattern(w.pattern, bursters)
	}
	if gap {
		w.wheel = traffic.NewGapWheel(pktRate)
		for i := range w.srcs {
			w.schedule(i, 0)
		}
		w.onDue = func(id int32) {
			i := int(id)
			w.spawn(i, w.pattern.Dest(i, w.srcs[i].rng), w.pktLen)
			w.schedule(i, w.now+1)
		}
	}
	return w, nil
}

// schedule puts gap source i's next injection at or after from, if it
// has one, on the wheel.
func (w *world) schedule(i int, from int64) {
	s := &w.srcs[i]
	if at := s.gap.NextInject(from, s.rng); at < sim.NoWake {
		w.wheel.Schedule(at, int32(i))
	}
}

// spawn queues one packet generated this cycle at source src.
func (w *world) spawn(src, dst, length int) {
	w.pktID++
	s := &w.srcs[src]
	for _, f := range w.fl.MakePacket(w.pktID, src, dst, 0, length, w.now, w.measuring) {
		// Capture the Head bit while the flit is still warm from creation.
		s.q.MustPush(srcFlit{f: f, head: f.Head})
	}
	w.genFlits += int64(length)
	w.backlog += int64(length)
	w.srcAct.Set(src)
	if w.measuring {
		w.labeled++
	}
}

// Cycle implements drive.World.
func (w *world) Cycle(now int64, ph drive.Phase, t *drive.Tally) error {
	w.now, w.measuring = now, ph.Measuring
	// Generate packets. A trace injects at its recorded cycles whatever
	// the phase; a synthetic source only while generation is live.
	switch {
	case w.trace != nil:
		for _, e := range w.trace.Due(now) {
			w.spawn(e.Src, e.Dst, e.Len)
		}
	case !ph.Generating:
	case w.wheel != nil:
		// Event-driven generation: only sources whose scheduled
		// injection cycle has arrived are visited, in ascending source
		// order within a cycle — the order the dense scan visits them,
		// so the dense twin is draw-for-draw identical.
		w.wheel.PopDue(now, w.onDue)
	default:
		for i := range w.srcs {
			s := &w.srcs[i]
			if s.proc.Inject(s.rng) {
				w.spawn(i, w.pattern.Dest(i, s.rng), w.pktLen)
			}
		}
	}
	// Move flits across the injection channels into input buffers.
	// Only sources holding queued flits are visited; ascending bit
	// order matches the dense scan exactly.
	r, v := w.r, w.vcs
	for i := w.srcAct.Next(0); i >= 0; i = w.srcAct.Next(i + 1) {
		s := &w.srcs[i]
		if s.injFree > now {
			continue
		}
		sf, ok := s.q.Peek()
		if !ok {
			continue
		}
		if sf.head && s.curVC < 0 {
			for j := 0; j < v; j++ {
				vc := s.vcPtr + j
				if vc >= v {
					vc -= v
				}
				if r.CanAccept(i, vc) {
					s.curVC = vc
					break
				}
			}
			if s.curVC < 0 {
				continue
			}
		}
		if !r.CanAccept(i, s.curVC) {
			continue
		}
		s.q.MustPop()
		w.backlog--
		if s.q.Len() == 0 {
			w.srcAct.Clear(i)
		}
		f := sf.f
		f.VC = s.curVC
		r.Accept(now, f)
		s.injFree = now + int64(w.st)
		if f.Tail {
			s.vcPtr = (s.curVC + 1) % v
			s.curVC = -1
		}
	}
	// Advance the router and collect ejections. A quiescent router's
	// step is a provable no-op (and ejects nothing), so it is skipped
	// outright — exact at any time, unlike a jump; Ejected() must not be
	// read on a skipped cycle, as it still holds the previous step's
	// recycled flits.
	if !w.wakeExact || !r.Quiescent() {
		r.Step(now)
		for _, f := range r.Ejected() {
			t.Deliver(f.CreatedAt, 0, f.Tail, f.Measured)
			w.fl.Put(f)
		}
	}
	if w.chk != nil {
		return w.chk.Err()
	}
	return nil
}

// NextWake implements drive.Waker: the router's next internal event,
// brought forward to the next recorded or wheel-scheduled generation. A
// per-cycle source draws randomness every live cycle, so while one is
// live no cycle may be skipped.
func (w *world) NextWake(now int64, live bool) int64 {
	if !w.wakeExact {
		return now + 1
	}
	gen, pending := int64(0), false
	switch {
	case w.trace != nil:
		gen, pending = w.trace.NextDue()
	case !live:
	case w.wheel != nil:
		gen, pending = w.wheel.NextAt()
	default:
		return now + 1
	}
	wake := w.r.NextWake(now)
	if pending && gen < wake {
		wake = gen
	}
	return wake
}

func (w *world) Backlog() int64         { return w.backlog }
func (w *world) InFlight() int          { return w.r.InFlight() }
func (w *world) GenFlits() int64        { return w.genFlits }
func (w *world) InjectedLabeled() int64 { return w.labeled }

// Run executes one simulation and returns its measurements.
func Run(o Options) (Result, error) {
	o = o.withDefaults()
	w, err := newWorld(o)
	if err != nil {
		return Result{}, err
	}
	c := drive.Config{
		Warmup: o.WarmupCycles, Measure: o.MeasureCycles, Drain: o.DrainCycles,
		Audited: o.Check, Dense: o.NoFastForward, OnMeasureStart: o.OnMeasureStart,
	}
	if o.Trace != nil {
		c.SourceEnd = o.Trace.Duration()
	}
	t, err := drive.Run(c, w)
	if err != nil {
		return Result{}, err
	}
	if w.chk != nil && t.Flits >= w.genFlits {
		if err := w.chk.Final(t.Cycles); err != nil {
			return Result{}, err
		}
	}
	res := Result{
		Load:       o.Load,
		AvgLatency: t.Lat.Mean(),
		P50:        t.Lat.Quantile(0.5),
		P99:        t.Lat.Quantile(0.99),
		Throughput: t.Throughput(len(w.srcs), w.st),
		Packets:    t.Labeled,
		RelErr99:   t.Lat.RelativeError99(),
		Cycles:     t.Cycles,
	}
	// Beyond the driver's two signs of a run that failed to reach steady
	// state, the single router has a third: accepted throughput measurably
	// short of the offered load (the standard criterion — beyond
	// saturation a router accepts less than offered).
	res.Saturated = t.Saturated(o.SatLatency) || res.Throughput < 0.9*o.Load-0.01
	return res, nil
}

// Sweep runs the simulation across the supplied offered loads and
// returns a latency-versus-load series named name, ending at the first
// saturated point (see drive.Sweep).
func Sweep(name string, loads []float64, base Options) (*stats.Series, error) {
	return drive.Sweep(name, loads, func(load float64) (float64, bool, error) {
		o := base
		o.Load = load
		res, err := Run(o)
		return res.AvgLatency, res.Saturated, err
	})
}

// SaturationThroughput measures accepted throughput at an offered load
// of 1.0 — the scalar the paper quotes as "saturation throughput".
func SaturationThroughput(base Options) (float64, error) {
	o := base
	o.Load = 1.0
	res, err := Run(o)
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}
