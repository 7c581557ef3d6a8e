package network

import (
	"highradix/internal/flit"
	"highradix/internal/stats"
	"highradix/internal/traffic"
)

// Hooks observes a network run at its terminal boundary. Implemented
// structurally by check.NewNetAuditor; the network side only defines
// the contract. EndCycle runs after every Step with the network's
// in-flight count and may end the run by returning an error.
type Hooks interface {
	Injected(now int64, f *flit.Flit)
	Delivered(now int64, f *flit.Flit)
	EndCycle(now int64, inFlight int) error
}

// Options parameterizes one network simulation run (Figure 19 uses
// uniform random traffic and single-flit packets).
type Options struct {
	// Net is the Clos configuration, used when Topo is nil.
	Net Config
	// Topo, when non-nil, selects the topology directly (NewRing,
	// NewTorus, or a custom family) and Net is ignored.
	Topo Topology
	// Load is offered load as a fraction of terminal channel capacity
	// (one flit per SerCycles per terminal).
	Load float64
	// PktLen is the packet length in flits (default 1, the paper's
	// Figure 19 configuration). Longer packets exercise wormhole
	// link-VC ownership across the network.
	PktLen int
	// WarmupCycles, MeasureCycles, DrainCycles size the phases; zero
	// takes defaults. SatLatency flags saturation.
	WarmupCycles  int64
	MeasureCycles int64
	DrainCycles   int64
	SatLatency    float64
	// Seed seeds the run: per-terminal generation streams and the
	// per-packet routing hash all derive from it.
	Seed uint64
	// Pattern supplies destination terminals; nil means uniform random.
	Pattern traffic.Pattern
	// Hooks, when non-nil, observes every injection and delivery and
	// audits each cycle. Arming hooks also stops generation at the end
	// of the measurement window and extends the run until every
	// generated flit has drained, so end-to-end conservation can be
	// verified; a non-nil EndCycle error aborts the run.
	Hooks Hooks
	// NoFastForward forces dense per-cycle stepping: the run neither
	// skips quiescent network steps nor jumps time across provably idle
	// stretches of a hooked drain. Fast-forwarding is cycle-exact
	// (TestNetFastForwardTwin asserts byte-identical results), so this
	// exists for A/B verification, not correctness.
	NoFastForward bool
	// Injection selects the terminal source implementation. The
	// default, traffic.InjPerCycle, draws one Bernoulli per terminal
	// per cycle, which forbids skipping any generation-live cycle.
	// traffic.InjGap samples each terminal's next injection cycle
	// directly and schedules terminals on a sim.Wheel, so the run
	// advances straight to the next event across idle stretches:
	// O(events) at low load. Gap runs are byte-identical to their own
	// dense twins (TestNetGapFastForwardTwin) and
	// distribution-equivalent, not byte-identical, to per-cycle runs.
	Injection traffic.InjMode
}

// WithDefaults fills the defaulted phase lengths and packet size.
func (o Options) WithDefaults() Options {
	if o.PktLen == 0 {
		o.PktLen = 1
	}
	if o.WarmupCycles == 0 {
		o.WarmupCycles = 2000
	}
	if o.MeasureCycles == 0 {
		o.MeasureCycles = 4000
	}
	if o.DrainCycles == 0 {
		o.DrainCycles = 4 * (o.WarmupCycles + o.MeasureCycles)
	}
	if o.SatLatency == 0 {
		o.SatLatency = 2000
	}
	return o
}

// Topology resolves the run's topology — Topo when set, else the Clos
// described by Net — and checks it against the engine's index widths,
// so both drivers reject an oversize topology before building anything.
func (o Options) Topology() (Topology, error) {
	topo := o.Topo
	if topo == nil {
		clos, err := NewClos(o.Net)
		if err != nil {
			return nil, err
		}
		topo = clos
	}
	return topo, CheckLimits(topo)
}

// RouteSeed derives the routing-hash seed every engine of this run
// (serial or sharded) must share.
func (o Options) RouteSeed() uint64 { return o.Seed ^ 0x632be59bd9b4e019 }

// SourceOpts derives the terminal-source parameters for this run over
// the given topology.
func (o Options) SourceOpts(topo Topology) SourceOpts {
	pattern := o.Pattern
	if pattern == nil {
		pattern = traffic.NewUniform(topo.Terminals())
	}
	return SourceOpts{
		Seed:      o.Seed,
		Rate:      o.Load / float64(topo.SerCycles()*o.PktLen),
		PktLen:    o.PktLen,
		Pattern:   pattern,
		Injection: o.Injection,
	}
}

// Result mirrors testbench.Result at network scale.
type Result struct {
	Load       float64
	AvgLatency float64
	P99        float64
	Throughput float64
	Packets    int64
	Saturated  bool
	Cycles     int64
	AvgHops    float64
	// DrainUsed is how many cycles past the measurement window the run
	// actually needed before exiting (0 when it exited at the window's
	// edge; DrainCycles when the drain bound was exhausted).
	DrainUsed int64
}

// Run executes one network simulation serially. The sharded runner
// (internal/network/shard) reproduces this function's results
// byte-for-byte at every worker count; changes to the cycle structure
// here must be mirrored there (TestShardDeterminism pins the
// equivalence).
func Run(o Options) (Result, error) {
	o = o.WithDefaults()
	topo, err := o.Topology()
	if err != nil {
		return Result{}, err
	}
	nw := NewNetwork(topo, o.RouteSeed())
	src := NewSources(topo, o.SourceOpts(topo), 0, topo.Routers())
	n, ser := topo.Terminals(), topo.SerCycles()
	gap := o.Injection == traffic.InjGap

	lat := stats.NewSample(8192)
	hops := stats.NewSample(4096)
	var (
		deliveredLabeled int64
		measFlitsOut     int64
		delFlits         int64
		now              int64
	)
	measStart := o.WarmupCycles
	measEnd := o.WarmupCycles + o.MeasureCycles
	maxCycles := measEnd + o.DrainCycles
	// Whole cycles may be jumped only where no RNG draw can occur.
	// Unhooked per-cycle runs draw every terminal's stream every cycle,
	// so they never jump (they still skip quiescent Steps, which is
	// exact at any time); hooked runs stop generating at measEnd and may
	// fast-forward the drain tail once every source queue is empty.
	fastForward := !o.NoFastForward
	var onInject func(*flit.Flit)
	if o.Hooks != nil {
		onInject = func(f *flit.Flit) { o.Hooks.Injected(now, f) }
	}

	for now = 0; now < maxCycles; now++ {
		measuring := now >= measStart && now < measEnd
		generating := o.Hooks == nil || now < measEnd
		if generating {
			src.Generate(now, measuring)
		}
		src.InjectAll(now, nw, onInject)
		// Advance the network and collect deliveries. A quiescent
		// network's step is a provable no-op (and ejects nothing), so it
		// is skipped outright; Ejected() must not be read on a skipped
		// cycle, as it still holds the previous step's recycled flits.
		if !fastForward || !nw.Quiescent() {
			nw.Step(now)
			for _, f := range nw.Ejected() {
				if measuring {
					measFlitsOut++
				}
				if f.Tail && f.Measured {
					lat.Add(float64(now - f.CreatedAt))
					hops.Add(float64(f.Hops))
					deliveredLabeled++
				}
				delFlits++
				if o.Hooks != nil {
					o.Hooks.Delivered(now, f)
				}
				src.Recycle(f)
			}
		}
		if o.Hooks != nil {
			if err := o.Hooks.EndCycle(now, nw.InFlight()); err != nil {
				return Result{}, err
			}
			// A hooked run drains every generated flit, not just the
			// labeled sample, so conservation holds over the whole run.
			if now >= measEnd && delFlits >= src.GenFlits() {
				now++
				break
			}
		} else if now >= measEnd && (deliveredLabeled >= src.InjectedLabeled() ||
			(src.Backlog() == 0 && nw.InFlight() == 0)) {
			// The second disjunct ends the drain the moment the network
			// is provably empty: with no source backlog and nothing in
			// flight, no further delivery can occur, so waiting out the
			// drain bound would only burn cycles (and, in a run that
			// leaked labeled packets, mask the loss — the saturation
			// check below still flags it).
			now++
			break
		}
		// Fast-forward across provably idle stretches: every source
		// queue is empty and no generation can occur before the
		// network's next internal event, so jump time straight there.
		// Skipped cycles draw no RNG, deliver nothing, and leave every
		// exit check unchanged (wake is capped at measEnd so no phase
		// boundary is crossed); the auditor's EndCycle is a no-op on
		// them (no events, and the watchdog only arms against a live
		// set that NextWake bounds). Per-cycle generation draws every
		// live cycle, so only a hooked drain tail may jump; gap mode
		// schedules every future injection on the wheel, so any idle
		// stretch may be jumped, at any load, with the wake capped at
		// the wheel's next event.
		if fastForward && src.Backlog() == 0 && (gap || !generating) {
			wake := nw.NextWake(now)
			if gap && (o.Hooks == nil || now+1 < measEnd) {
				if at, ok := src.WheelNext(); ok && at < wake {
					wake = at
				}
			}
			if now < measEnd && wake > measEnd {
				wake = measEnd
			}
			if wake > maxCycles {
				wake = maxCycles
			}
			if wake-1 > now {
				now = wake - 1
			}
		}
	}

	res := Result{
		Load:       o.Load,
		AvgLatency: lat.Mean(),
		P99:        lat.Quantile(0.99),
		Throughput: float64(measFlitsOut) * float64(ser) / (float64(n) * float64(o.MeasureCycles)),
		Packets:    deliveredLabeled,
		Cycles:     now,
		AvgHops:    hops.Mean(),
	}
	if now > measEnd {
		res.DrainUsed = now - measEnd
	}
	if deliveredLabeled < src.InjectedLabeled() || res.AvgLatency > o.SatLatency {
		res.Saturated = true
	}
	return res, nil
}

// Sweep runs across offered loads, stopping after the first saturated
// point, and returns the latency-versus-load series.
func Sweep(name string, loads []float64, base Options) (*stats.Series, error) {
	s := &stats.Series{Name: name}
	for _, load := range loads {
		o := base
		o.Load = load
		res, err := Run(o)
		if err != nil {
			return nil, err
		}
		s.Add(load, res.AvgLatency, res.Saturated)
		if res.Saturated {
			break
		}
	}
	return s, nil
}
