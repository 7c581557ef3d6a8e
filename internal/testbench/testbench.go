// Package testbench drives a single router with synthetic traffic using
// the methodology of the paper's Section 4.3: Bernoulli (or Markov
// ON/OFF) injection, a warm-up period without measurement, a labeled
// sample of packets injected during a measurement interval, and a drain
// phase that runs until every labeled packet has been delivered. It
// reports mean packet latency, accepted throughput and saturation.
//
// Both halves of that methodology live in internal/drive: the sources,
// source queues and injection channels are a drive.Bank, the procedure
// is drive.Run. This package builds the router (or its check.Wrap),
// hands the bank its per-port seeds and run-wide packet ids, and turns
// the driver's tally into a Result.
package testbench

import (
	"fmt"

	"highradix/internal/check"
	"highradix/internal/drive"
	"highradix/internal/router"
	"highradix/internal/sim"
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
	Trace *traffic.Trace `key:"nil"`
	// Bursty switches injection from Bernoulli to Markov ON/OFF with
	// traffic.BurstLen average packets per burst; burst packets share a
	// destination (Table 1).
	Bursty bool
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
	NoFastForward bool `key:"-"`
	// Injection selects the synthetic source implementation (ignored
	// for trace replays). The default, traffic.InjPerCycle, draws one
	// Bernoulli or Markov ON/OFF step per source per cycle, the
	// discipline every golden was recorded under. traffic.InjGap samples
	// each Bernoulli source's next injection cycle directly (same arrival
	// distribution, one draw per packet; see traffic.InjGap); Run refuses
	// it together with Bursty. Either way drive.Bank knows every source's
	// next generation cycle ahead of time, so the run advances straight
	// to the next event across idle stretches.
	Injection traffic.InjMode
	// OnMeasureStart, when non-nil, is called exactly once, at the first
	// cycle of the measurement window (after construction and warmup).
	// Benchmarks pass testing.B.ResetTimer so ns/op and allocs/op
	// measure steady-state stepping only — at radix 256 the one-time
	// construction of O(k^2) crosspoint state would otherwise dominate
	// the per-op numbers and hide (or fake) steady-state allocations.
	OnMeasureStart func() `key:"nil"`
}

func (o Options) WithDefaults() Options {
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
	return o
}

// Result summarizes one run. The store and the digest tables hold its
// fields in this order (cache.Encode).
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
	// RelErr99 is the 99%-confidence relative half-width of the mean
	// latency (the paper keeps this under 3%).
	RelErr99 float64
	// Packets is the number of labeled packets delivered.
	Packets int64
	// Cycles is the total simulated cycle count.
	Cycles int64
	// Saturated reports that the run did not reach steady state: the
	// drain did not complete or the mean latency diverged.
	Saturated bool
}

// Run executes one simulation and returns its measurements: the router
// under test, behind a drive.Bank of one source per port, as the
// drive.Plant internal/drive advances.
func Run(o Options) (Result, error) {
	o = o.WithDefaults()
	if o.Bursty && o.Injection == traffic.InjGap && o.Trace == nil {
		return Result{}, fmt.Errorf("testbench: Bursty with Injection %v: Markov ON/OFF sources have no gap-sampled form", o.Injection)
	}
	var (
		r   router.Router
		chk *check.Checker
		err error
	)
	p := &drive.Plant{}
	if o.Check {
		var c *check.Checked
		if c, err = check.Wrap(o.Router); err == nil {
			r, chk = c, c.Checker()
			p.Audit = func(int64, int) error { return chk.Err() }
		}
	} else {
		r, err = router.New(o.Router)
	}
	if err != nil {
		return Result{}, err
	}
	p.Dev = r
	cfg := r.Config()
	k, st := cfg.Radix, cfg.STCycles
	c := drive.Config{
		Warmup: o.WarmupCycles, Measure: o.MeasureCycles, Drain: o.DrainCycles,
		Audited: o.Check, Dense: o.NoFastForward, OnMeasureStart: o.OnMeasureStart,
	}
	if o.Trace == nil {
		if err := drive.CheckLoad(o.Load, st, o.PktLen); err != nil {
			return Result{}, fmt.Errorf("testbench: %w", err)
		}
	} else {
		for _, e := range o.Trace.Entries() {
			if e.Src < 0 || e.Src >= k || e.Dst < 0 || e.Dst >= k || e.Len < 1 {
				return Result{}, fmt.Errorf("testbench: trace entry %+v outside radix %d or shorter than one flit", e, k)
			}
		}
		c.SourceEnd = o.Trace.Duration()
	}
	// Every source's stream is split off one master in port order, and
	// packet ids count up across the whole run (hrsim -packets orders by them).
	master := sim.NewRNG(o.Seed ^ 0x685a2d9cb9a5d1f3)
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	var pktID uint64
	p.Bank = drive.NewBank(drive.BankConfig{
		Workload: drive.Workload{
			Rate: o.Load / float64(st*o.PktLen), PktLen: o.PktLen, Pattern: o.Pattern,
			Bursty: o.Bursty, Injection: o.Injection, Trace: o.Trace,
		},
		Sources: k, VCs: cfg.VCs, Ser: st,
		Seed:     func(id int) uint64 { return seeds[id] },
		PacketID: func(int, uint32) uint64 { pktID++; return pktID },
	})
	t, err := drive.Run(c, func() drive.World { return p })
	if err != nil {
		return Result{}, err
	}
	if t.Drained {
		if err := chk.Final(t.Cycles); err != nil {
			return Result{}, err
		}
	}
	res := Result{
		Load:       o.Load,
		AvgLatency: t.Lat.Mean(),
		P50:        t.Lat.Quantile(0.5),
		P99:        t.Lat.Quantile(0.99),
		Throughput: t.Throughput(k, st),
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

// Saturating returns o set up as a saturation run: offered load 1.0 and
// a one-cycle drain. The drain is all but skipped because Throughput
// counts the measurement window's flits only; a run past saturation
// could otherwise spend its whole drain bound failing to empty.
func Saturating(o Options) Options {
	o.Load, o.DrainCycles = 1.0, 1
	return o
}

// SaturationThroughput measures accepted throughput at an offered load
// of 1.0 — the scalar the paper quotes as "saturation throughput". It
// overrides the caller's Load and DrainCycles (see Saturating).
func SaturationThroughput(base Options) (float64, error) {
	res, err := Run(Saturating(base))
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}
