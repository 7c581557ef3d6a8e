// Package highradix is a Go reproduction of "Microarchitecture of a
// High-Radix Router" (Kim, Dally, Towles, Gupta — ISCA 2005).
//
// It provides cycle-accurate models of the paper's four router
// microarchitectures (plus the shared-crosspoint variant of Section
// 5.4), the synthetic traffic patterns of its evaluation, a
// single-router testbench implementing the paper's measurement
// methodology, a multistage Clos network simulator, and the analytic
// latency/cost/area models of Sections 2, 5 and 6.
//
// # Quick start
//
//	cfg := highradix.RouterConfig{Arch: highradix.Hierarchical, SubSize: 8}
//	res, err := highradix.Simulate(highradix.SimOptions{Router: cfg, Load: 0.7})
//	if err != nil { ... }
//	fmt.Println(res.AvgLatency, res.Throughput)
//
// The five architectures, in the order the paper develops them:
//
//   - LowRadix — conventional input-queued VC router, centralized
//     single-cycle allocation (the paper's radix-16 comparison point).
//   - Baseline — the input-queued crossbar scaled to high radix with
//     distributed hierarchical (local-global) switch allocation and
//     speculative VC allocation (CVA or OVA), optionally with the
//     prioritized dual arbiter of Section 4.4.
//   - Buffered — the fully buffered crossbar: per-input-VC crosspoint
//     buffers, credit flow control with a shared credit-return bus.
//   - SharedXpoint — a single shared buffer per crosspoint with ACK/NACK
//     retention (Section 5.4).
//   - Hierarchical — the paper's contribution: (k/p)^2 p-by-p
//     subswitches with per-VC buffers at subswitch boundaries and
//     decoupled local/global VC allocation.
//
// Two further allocation policies from the surrounding literature plug
// into the same registry for head-to-head comparison:
//
//   - VOQ — per-input virtual output queues scheduled by an iterative
//     iSLIP grant/accept matcher (the Tiny Tera organization).
//   - DynVC — dynamic virtual-channel allocation: each input's buffer
//     pool is carved into VCs on demand under a congestion-aware
//     sizing rule.
//
// The set is open: Architectures, DescribeArch and ArchByName expose
// the registry, and a new policy registers itself with router.Register.
//
// Every experiment in the paper's evaluation can be regenerated with
// the Experiment function or the cmd/hrsweep tool; see EXPERIMENTS.md
// for measured-versus-paper results.
package highradix

import (
	"highradix/internal/analytic"
	"highradix/internal/area"
	"highradix/internal/experiments"
	"highradix/internal/network"
	"highradix/internal/router"
	"highradix/internal/stats"
	"highradix/internal/sweep"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// RouterConfig parameterizes a router; zero fields default to the
// paper's evaluation parameters (k=64, v=4, 4-cycle switch traversal,
// m=8 arbitration groups, p=8 subswitches, 4-flit crosspoint buffers).
type RouterConfig = router.Config

// Arch selects a router microarchitecture.
type Arch = router.Arch

// The architectures studied by the paper, plus the registry's
// additional allocation policies.
const (
	LowRadix     = router.ArchLowRadix
	Baseline     = router.ArchBaseline
	Buffered     = router.ArchBuffered
	SharedXpoint = router.ArchSharedXpoint
	Hierarchical = router.ArchHierarchical
	VOQ          = router.ArchVOQ
	DynVC        = router.ArchDynVC
)

// ArchDescriptor is a registered architecture's registry entry:
// constructor, checker traits, validation hook, test variants and
// bench radices.
type ArchDescriptor = router.Descriptor

// Architectures lists every registered architecture in ascending
// order; DescribeArch returns one's registry entry and ArchByName
// resolves a CLI name ("hierarchical", "voq", ...) to its Arch.
var (
	Architectures = router.Registered
	DescribeArch  = router.Describe
	ArchByName    = router.ArchByName
)

// VAScheme selects the speculative virtual-channel allocation flavor of
// the baseline architecture.
type VAScheme = router.VAScheme

// CVA allocates VCs at the crosspoints; OVA defers the check to the
// output of the switch (deeper speculation, less logic, lower
// throughput).
const (
	CVA = router.CVA
	OVA = router.OVA
)

// Router is the cycle-level device interface shared by all
// architectures.
type Router = router.Router

// Event, EventKind, Observer and ObserverFunc expose the per-flit
// microarchitectural event stream (attach via RouterConfig.Observer).
type (
	Event        = router.Event
	EventKind    = router.EventKind
	Observer     = router.Observer
	ObserverFunc = router.ObserverFunc
)

// Observable event kinds.
const (
	EvAccept = router.EvAccept
	EvGrant  = router.EvGrant
	EvNack   = router.EvNack
	EvEject  = router.EvEject
	EvCredit = router.EvCredit
)

// NewRouter constructs a router from a configuration.
func NewRouter(cfg RouterConfig) (Router, error) { return router.New(cfg) }

// SimOptions parameterizes a single-router simulation (see
// testbench.Options for field documentation).
type SimOptions = testbench.Options

// SimResult reports latency, throughput and saturation for one run.
type SimResult = testbench.Result

// Simulate runs one single-router simulation with the paper's
// warm-up/measure/drain methodology.
func Simulate(o SimOptions) (SimResult, error) { return testbench.Run(o) }

// SweepLoads runs a latency-versus-offered-load curve, stopping at the
// first saturated point.
func SweepLoads(name string, loads []float64, base SimOptions) (*Series, error) {
	return curve(name, loads, func(load float64) (sweep.Point, error) {
		o := base
		o.Load = load
		res, err := testbench.Run(o)
		return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, err
	})
}

// curve runs a latency-load curve on one worker, where sweep.Curve is
// the serial early-stopping loop: points run one at a time, in order,
// and none past the first saturated one. One worker, because a caller's
// Router.Observer or OnMeasureStart need not be goroutine-safe.
func curve(name string, loads []float64, run func(load float64) (sweep.Point, error)) (*Series, error) {
	p := sweep.New(1)
	return sweep.Curve(p, name, loads, func(load float64) (sweep.Point, error) {
		return sweep.Do(p, func() (sweep.Point, error) { return run(load) })
	})
}

// SaturationThroughput measures accepted throughput at an offered load
// of 1.0 — the scalar the paper quotes as saturation throughput.
func SaturationThroughput(base SimOptions) (float64, error) {
	return testbench.SaturationThroughput(base)
}

// Traffic patterns (Table 1 plus the classic permutations).
type Pattern = traffic.Pattern

// Pattern constructors; see the traffic package for semantics.
var (
	UniformTraffic   = traffic.NewUniform
	DiagonalTraffic  = traffic.NewDiagonal
	HotspotTraffic   = traffic.NewHotspot
	WorstCaseTraffic = traffic.NewWorstCaseHierarchical
	PatternByName    = traffic.ByName
)

// Trace is a replayable recorded workload; TraceEntry is one packet.
// Load with LoadTrace, record with Trace.WriteTo, or synthesize with
// GenerateTrace; pass via SimOptions.Trace to replay.
type (
	Trace      = traffic.Trace
	TraceEntry = traffic.TraceEntry
)

// Trace constructors.
var (
	NewTrace  = traffic.NewTrace
	LoadTrace = traffic.LoadTrace
)

// Series and Table are the reporting containers used by experiment
// output.
type (
	Series = stats.Series
	Table  = stats.Table
)

// NetworkConfig parameterizes a multistage Clos network (Figure 19):
// its radix, digits, VCs and buffer depth. Its timing is not a
// parameter: each hop costs the radix's pipeline delay from Equation
// (2) in cycles (analytic.Cycles) plus one link cycle, and each packet
// pays the channel serialization once.
type NetworkConfig = network.Config

// NetOptions and NetResult parameterize and report network runs.
type (
	NetOptions = network.Options
	NetResult  = network.Result
)

// SimulateNetwork runs one Clos network simulation, sharded over a CPU
// the process leaves spare when the network has 4096 terminals or more;
// the result is byte-identical either way.
func SimulateNetwork(o NetOptions) (NetResult, error) { return network.Run(o) }

// SweepNetwork runs a network latency-load curve, stopping at the first
// saturated point.
func SweepNetwork(name string, loads []float64, base NetOptions) (*Series, error) {
	return curve(name, loads, func(load float64) (sweep.Point, error) {
		o := base
		o.Load = load
		res, err := network.Run(o)
		return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, err
	})
}

// Technology is a design point of the Section 2 latency/cost model.
type Technology = analytic.Technology

// The paper's four technology design points.
var (
	Tech1991 = analytic.Tech1991
	Tech1996 = analytic.Tech1996
	Tech2003 = analytic.Tech2003
	Tech2010 = analytic.Tech2010
)

// OptimalRadix solves k*ln^2(k) = A for the latency-minimizing radix.
func OptimalRadix(aspectRatio float64) float64 { return analytic.OptimalRadix(aspectRatio) }

// AreaModel holds the technology parameters of Figures 15 and 17(d):
// flit width, bit-cell area and the crossbar wire model.
type AreaModel = area.Model

// DefaultAreaModel returns the calibrated 0.10um model used by the
// reproduction.
func DefaultAreaModel() AreaModel { return area.Default() }

// RouterArea is a built router priced in an AreaModel: its storage in
// bits and mm^2 and its crossbar's wire area.
type RouterArea = experiments.Area

// PriceRouter builds the router cfg configures (zero fields take the
// paper's defaults) and prices the buffers it holds.
func PriceRouter(m AreaModel, cfg RouterConfig) (RouterArea, error) {
	if err := cfg.WithDefaults().Validate(); err != nil {
		return RouterArea{}, err
	}
	return experiments.Price(m, cfg), nil
}

// AreaCrossover returns the smallest radix at which the fully buffered
// crossbar's storage area exceeds its wire area (the paper reports ~50).
func AreaCrossover(m AreaModel) int { return experiments.Crossover(m) }

// ExperimentScale sizes experiment runs; FullScale reproduces the
// figures at publication quality, QuickScale is for smoke runs.
type ExperimentScale = experiments.Scale

// Experiment scales.
var (
	FullScale  = experiments.Full
	QuickScale = experiments.Quick
)

// Experiment regenerates one of the paper's tables or figures by name
// ("fig9", "fig17a", "table1", ...; see cmd/hrsweep -list).
func Experiment(name string, scale ExperimentScale) (*Table, error) {
	gen, err := experiments.ByName(name)
	if err != nil {
		return nil, err
	}
	return gen(scale)
}
