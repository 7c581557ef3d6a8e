package network

import (
	"fmt"

	"highradix/internal/drive"
	"highradix/internal/flit"
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
	// Topo, when non-nil, selects the topology directly (NewTorus,
	// whose Y = 1 is the ring, or a custom family) and Net is ignored.
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
	Hooks Hooks `key:"nil"`
	// NoFastForward forces dense per-cycle stepping: the run neither
	// skips quiescent network steps nor jumps time across provably idle
	// stretches of a hooked drain. Fast-forwarding is cycle-exact
	// (TestNetFastForwardTwin asserts byte-identical results), so this
	// exists for A/B verification, not correctness.
	NoFastForward bool `key:"-"`
	// Injection selects the terminal source implementation. The
	// default, traffic.InjPerCycle, draws one Bernoulli per terminal
	// per cycle; traffic.InjGap samples each terminal's next injection
	// cycle directly, one draw per packet. Either way drive.Bank knows
	// every terminal's next generation cycle ahead of time, so the run
	// advances straight to the next event across idle stretches. Gap
	// runs are byte-identical to their own dense twins
	// (TestNetGapFastForwardTwin) and distribution-equivalent, not
	// byte-identical, to per-cycle runs.
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
	return SourceOpts{Seed: o.Seed, Workload: drive.Workload{
		Rate:      o.Load / float64(topo.SerCycles()*o.PktLen),
		PktLen:    o.PktLen,
		Pattern:   o.Pattern,
		Injection: o.Injection,
	}}
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

// World is the drive.Plant of an engine: the engine behind the source
// bank feeding it. The one-engine world is one over the whole topology;
// each worker of the epoch runner advances one over its router range.
type World struct {
	drive.Plant
	Net *Network
}

// NewWorld builds engine i of layout l over topo, with the sources it
// hosts, for o (already defaulted), observed by o.Hooks if any. The
// auditor's EndCycle is a no-op on the cycles a jump skips (no events,
// and the watchdog only arms against a live set the engine's NextWake
// bounds).
func NewWorld(o Options, topo Topology, l Layout, i int) *World {
	nw := NewNetworkRange(topo, o.RouteSeed(), l, i)
	lo, hi := l.Terminals[i][0], l.Terminals[i][1]
	bank := newSources(topo, o.SourceOpts(topo), func(t int) bool { return t >= lo && t < hi })
	w := &World{Net: nw, Plant: drive.Plant{Dev: nw, Bank: bank}}
	if h := o.Hooks; h != nil {
		w.OnInject, w.OnDeliver, w.Audit = h.Injected, h.Delivered, h.EndCycle
	}
	return w
}

// shardTerminals is the smallest share of a network's terminals Run
// gives one worker: a network below twice this runs on the one-engine
// world whatever CPUs are spare, and a larger one never on more than one
// worker per shardTerminals terminals, so a many-core host does not cut
// it into slivers whose epochs are all handoff. The threshold is
// measured: on 2 vCPUs two workers take 0.53-0.97x the one-engine time
// on the two 4096-terminal Clos networks, and every smaller network
// measured is slower sharded at some load, up to 1.95x (DESIGN.md,
// "Workers from the CPU budget"). The floor is not: only 2-worker runs
// were timed, so whether 2048 terminals per worker is right beyond 2
// workers is unverified. Re-measure it before a network of more than
// 4096 terminals relies on it.
const shardTerminals = 2048

// Test hooks, set only by tests: testHookCounted sees every Run
// once drive.Run has counted it against the CPU budget and before it
// chooses its workers, testHookChose the count it chose (1 for the
// one-engine world).
var (
	testHookCounted func()
	testHookChose   func(workers int)
)

// Run executes one network simulation on as many workers as the CPU
// budget allows (internal/drive's Claim and ClaimSpare): a network of at
// least 2*shardTerminals terminals claims the CPUs the runs already
// counted leave spare, one worker per shardTerminals terminals at most,
// and runs on the epoch runner over itself and them; any other run, or
// one that finds no CPU spare, is the one-engine world. The two are
// byte-identical at every worker count (TestShardDeterminism holds the
// epoch runner to RunSerial), so the choice moves wall-clock only.
func Run(o Options) (Result, error) {
	return run(o, func(topo Topology) (int, func()) {
		if testHookCounted != nil {
			testHookCounted()
		}
		spare, release := drive.ClaimSpare(topo.Terminals()/shardTerminals - 1)
		if testHookChose != nil {
			testHookChose(1 + spare)
		}
		if spare == 0 {
			return 0, nil
		}
		return 1 + spare, release
	})
}

// RunSerial executes one network simulation on the one-engine world,
// whatever the budget: the world every sharded run is held to.
func RunSerial(o Options) (Result, error) {
	return run(o, func(Topology) (int, func()) { return 0, nil })
}

// RunSharded executes one network simulation on the epoch runner over
// workers workers (at least one, which still runs the epoch machinery),
// counted against the CPU budget whether or not CPUs are spare.
func RunSharded(o Options, workers int) (Result, error) {
	return run(o, func(Topology) (int, func()) {
		p := max(workers, 1)
		return p, drive.Claim(p - 1)
	})
}

// run drives o under internal/drive and summarizes what it measured:
// everything the one-engine world and the epoch runner share. claim,
// called once drive.Run has counted the run against the CPU budget,
// returns how many workers the run shards over, with the release of the
// goroutines it claimed for them; 0 is the one-engine world. Every way
// out of the run — its end, an error, a panic — stops the workers.
func run(o Options, claim func(topo Topology) (workers int, release func())) (Result, error) {
	o = o.WithDefaults()
	topo, err := o.Topology()
	if err != nil {
		return Result{}, err
	}
	if err := drive.CheckLoad(o.Load, topo.SerCycles(), o.PktLen); err != nil {
		return Result{}, fmt.Errorf("network: %w", err)
	}
	c := drive.Config{
		Warmup: o.WarmupCycles, Measure: o.MeasureCycles, Drain: o.DrainCycles,
		Audited: o.Hooks != nil, Dense: o.NoFastForward,
	}
	s := &sharded{}
	defer s.stop()
	t, err := drive.Run(c, func() drive.World {
		workers, release := claim(topo)
		if workers == 0 {
			return NewWorld(o, topo, whole(topo), 0)
		}
		s.start(o, topo, c, workers, release)
		return s
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Load:       o.Load,
		AvgLatency: t.Lat.Mean(),
		P99:        t.Lat.Quantile(0.99),
		Throughput: t.Throughput(topo.Terminals(), topo.SerCycles()),
		Packets:    t.Labeled,
		Saturated:  t.Saturated(o.SatLatency),
		Cycles:     t.Cycles,
		AvgHops:    t.AvgHops(),
		DrainUsed:  t.DrainUsed,
	}, nil
}
