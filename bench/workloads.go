package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"highradix/internal/experiments"
	"highradix/internal/network"
	"highradix/internal/network/shard"
	"highradix/internal/router"
	"highradix/internal/stats"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// workScale is the one constant ISSUE 11's cycle and request counts are
// multiplied by. The issue sized one rep at 5–25 s; the benchmark
// contract allows about 20 s per run including set-up, so a pass (one
// execution of a workload's fixed operation list) is sized at 1–2 s
// and a run repeats passes for -seconds, reporting medians.
const workScale = 1.0 / 8

// warmFloor keeps scaled warm-up phases long enough (several network
// latencies) for the measured window to start in steady state, which
// the offered-versus-accepted check below relies on.
const warmFloor = 200

// env is everything a workload derives its inputs from.
type env struct {
	seed  uint64
	scale float64 // multiplies every count: 1 in every run, 1/50 in the smoke test
	dir   string  // scratch directory for on-disk stores, inside the out dir
	root  string  // module root, where the goldens live
	procs int     // GOMAXPROCS
}

// n scales a measured-cycle or request count of the issue.
func (e env) n(full int64) int64 {
	v := int64(math.Round(float64(full) * e.scale * workScale))
	if v < 1 {
		v = 1
	}
	return v
}

// warm scales a warm-up length, never below warmFloor (which itself
// shrinks with env.scale, so the smoke test stays short).
func (e env) warm(full int64) int64 {
	floor := int64(math.Ceil(warmFloor * math.Min(e.scale, 1)))
	if v := e.n(full); v > floor {
		return v
	}
	return floor
}

// sums names the totals of a pass that a timed part belongs to.
type sums uint8

const (
	inPre    sums = 1 << iota // inside layer calls but before their timed section: construction and warm-up
	inWall                    // the timed section
	inSim                     // the part of it during which the simulations whose Results the harness sees ran
	inSteady                  // the operations req_per_s and warm_p50_us describe (every simulation or figure; serve_mix's warm phase)
	inCold                    // a workload's own cold section (serve_mix's cold phase); none means every operation is cold, see cold_s
	isP50                     // not a total: the pass's median client-observed latency, where the workload takes one (serve_mix)
)

// part is one separately timed piece of a pass. Every pass of a run
// executes the same pieces in the same order, so a run estimates each
// piece on its own across its passes (see settle).
type part struct {
	d    time.Duration
	in   sums
	host float64 // how much slower than the reference the host ran around it (host.go)
}

// pass records one execution of a workload's operation list.
type pass struct {
	tr *tracer // nil in end-to-end runs

	attempted int
	failures  []string
	digest    hash.Hash // SHA-256 over the encoded simulated results, in declaration order

	parts []part
	// lastProbe is the latest host probe (0 before the first) and probed
	// counts the parts that already have their host factor.
	lastProbe float64
	probed    int
	// What the inSim parts simulated and how many operations the
	// inSteady parts served; the same in every pass of a run, because the
	// simulations are deterministic.
	flitHops  float64
	cycles    int64
	steadyOps int
	// extra carries numbers only the per-layer ledger reports.
	extra map[string]float64
}

func (p *pass) add(d time.Duration, in sums) { p.parts = append(p.parts, part{d: d, in: in}) }

// probe takes the host's speed and gives every part added since the
// previous probe the mean of the two as its host factor. A pass probes
// when it starts and after each operation.
func (p *pass) probe() {
	h := hostSlowdown()
	around := h
	if p.lastProbe > 0 {
		around = (p.lastProbe + h) / 2
	}
	for ; p.probed < len(p.parts); p.probed++ {
		p.parts[p.probed].host = around
	}
	p.lastProbe = h
}

// total adds up the parts that belong to in.
func total(parts []part, in sums) time.Duration {
	var d time.Duration
	for _, pt := range parts {
		if pt.in&in != 0 {
			d += pt.d
		}
	}
	return d
}

// p50 is the median latency over parts: the one a pass measured itself,
// or else the median over its steady operations.
func p50(parts []part) time.Duration {
	var steady []time.Duration
	for _, pt := range parts {
		if pt.in&isP50 != 0 {
			return pt.d
		}
		if pt.in&inSteady != 0 {
			steady = append(steady, pt.d)
		}
	}
	return quantile(steady, 0.5)
}

// settle estimates every part of a run: its time at the reference host
// speed (time ÷ host factor), the median over the passes. A pass cut
// short by a failed operation has other parts and is left out; the run
// is already incorrect.
func settle(passes []*pass) []part {
	out := append([]part(nil), passes[0].parts...)
	xs := make([]float64, 0, len(passes))
	for i := range out {
		xs = xs[:0]
		for _, p := range passes {
			if len(p.parts) == len(out) {
				xs = append(xs, float64(p.parts[i].d)/p.parts[i].host)
			}
		}
		out[i].d = time.Duration(median(xs))
	}
	return out
}

func newPass(tr *tracer) *pass {
	return &pass{tr: tr, digest: sha256.New(), extra: map[string]float64{}}
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// protect turns a panic inside a layer into an error, so one broken
// operation is counted as failed instead of ending the run.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// collect runs the garbage collector outside every timed section, as
// testing.B does between benchmark runs: each pass and each
// simulation-type operation starts from a collected heap, so the
// garbage its predecessor left does not leak into its time or into the
// peak resident set. (A CLI user runs one simulation per process, so
// this is also the closer model of real use.)
func collect() { runtime.GC() }

// op accounts one sequential simulation-type operation whose whole
// timed section counts toward every rate.
func (p *pass) op(pre, timed time.Duration, flitHops float64, cycles int64) {
	p.add(pre, inPre)
	p.add(timed, inWall|inSim|inSteady)
	p.flitHops += flitHops
	p.cycles += cycles
	p.steadyOps++
}

// minCheckedFlits is the labelled sample below which the
// offered-versus-accepted check is skipped: 2% is 4 sigma of a
// Bernoulli sample of 40 000 flits, so smaller (smoke-test) runs would
// fail by chance.
const minCheckedFlits = 40000

// checkAccepted fails a sub-saturation (load 0.5) run whose accepted
// throughput is off offered load by more than 2%.
func (p *pass) checkAccepted(name string, load float64, packets int64, throughput float64) {
	if load == 0.5 && packets >= minCheckedFlits && math.Abs(throughput-load) > 0.02*load {
		p.fail("%s: accepted throughput %.4f is off offered load %.2f by more than 2%%", name, throughput, load)
	}
}

// runTB runs one single-router simulation. Construction and warm-up
// (everything before the first measured cycle) count as set-up; the
// timed section runs from OnMeasureStart to return, which is the
// window Result.Packets was labelled in.
func (p *pass) runTB(name string, o testbench.Options) {
	var start time.Time
	o.OnMeasureStart = func() { start = time.Now() }
	var res testbench.Result
	collect()
	span := p.tr.begin("testbench", "Run "+name, -1, p.attempted, 0)
	t0 := time.Now()
	err := protect(func() (err error) { res, err = testbench.Run(o); return })
	t1 := time.Now()
	p.tr.end(span)
	p.attempted++
	if err != nil {
		p.fail("%s: %v", name, err)
		return
	}
	p.op(start.Sub(t0), t1.Sub(start), float64(res.Packets)*float64(o.PktLen), res.Cycles-o.WarmupCycles)
	p.probe()
	p.digest.Write(testbench.EncodeResult(res))
	p.checkAccepted(name, o.Load, res.Packets, res.Throughput)
}

// runNet runs one network simulation through run (network.Run or the
// sharded runner). The network drivers have no measure-start hook, so
// the whole call is timed.
func (p *pass) runNet(name string, o network.Options, run func(network.Options) (network.Result, error)) {
	var res network.Result
	collect()
	span := p.tr.begin("network", "Run "+name, -1, p.attempted, 0)
	t0 := time.Now()
	err := protect(func() (err error) { res, err = run(o); return })
	t1 := time.Now()
	p.tr.end(span)
	p.attempted++
	if err != nil {
		p.fail("%s: %v", name, err)
		return
	}
	p.op(0, t1.Sub(t0), float64(res.Packets)*float64(o.PktLen)*res.AvgHops, res.Cycles)
	p.probe()
	p.digest.Write(network.EncodeResult(res))
	p.checkAccepted(name, o.Load, res.Packets, res.Throughput)
}

// A workload is a closed loop over a fixed, seeded operation list.
type workload struct {
	name string
	why  string
	// setup builds the pass from the seed: option structs, topologies,
	// goldens, request orders. A -setup-only child runs it and exits, so
	// it is inside setup_s.
	setup func(e env) (func(p *pass), error)
	// verify, when set, runs once after the measurement with the
	// digest of a pass and reports cross-implementation mismatches.
	verify func(e env, digest []byte) error
}

var workloads = []workload{
	{name: "router_k64",
		why:   "the paper's operating point (radix 64, loads 0.5 and 0.9): router.Step and arb do the work, the driver never skips, pool/cache/service idle",
		setup: setupRouterK64},
	{name: "router_scale",
		why:   "radix 128 and 256 at load 0.5: anything scanning k or k^2 instead of active state shows here and not in router_k64",
		setup: setupRouterScale},
	{name: "router_lowload",
		why:   "loads 0.001-0.05 per-cycle and gap: Step is mostly skipped; fast-forward, sim.Wheel and gap samplers do the work",
		setup: setupRouterLowLoad},
	{name: "net_serial",
		why:   "network.Run on both 4096-terminal Fig 19 networks: its own router model, bypasses internal/router; the flit-hops/s row",
		setup: func(e env) (func(*pass), error) { return setupNet(e, network.Run) }},
	{name: "net_shard2",
		why:    "the same two option sets through shard.Run at 2 workers: ROADMAP item 3's exit test; results must equal net_serial's",
		setup:  func(e env) (func(*pass), error) { return setupNet(e, shard2) },
		verify: verifyShard},
	{name: "figs_quick",
		why:   "every registered figure at Quick scale, 2 pool workers, no cache: the wall-clock hrsweep -exp all -quick users wait for",
		setup: setupFigs},
	{name: "serve_mix",
		why:   "hrsweepd handler over a fresh store and 2 keep-alive clients, cold/warm/mixed phases: cache and service layers work, simulator little",
		setup: setupServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type tbCase struct {
	name string
	o    testbench.Options
}

func runCases(cases []tbCase) func(*pass) {
	return func(p *pass) {
		for _, c := range cases {
			p.runTB(c.name, c.o)
		}
	}
}

func setupRouterK64(e env) (func(*pass), error) {
	var cases []tbCase
	for _, a := range router.Registered() {
		for _, load := range []float64{0.5, 0.9} {
			cases = append(cases, tbCase{
				name: fmt.Sprintf("%s k64 load %.1f", a, load),
				o: testbench.Options{
					Router: router.Config{Arch: a, Radix: 64, VCs: 4}, Load: load, PktLen: 1,
					WarmupCycles: e.warm(3000), MeasureCycles: e.n(100000), DrainCycles: 1, Seed: e.seed,
				}})
		}
	}
	return runCases(cases), nil
}

// scaleArchs lists the architectures whose BenchRadices reach 256.
func scaleArchs() []router.Arch {
	var out []router.Arch
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		for _, r := range d.BenchRadices {
			if r == 256 {
				out = append(out, a)
			}
		}
	}
	return out
}

func setupRouterScale(e env) (func(*pass), error) {
	var cases []tbCase
	for _, rc := range []struct {
		radix  int
		cycles int64
	}{{128, 50000}, {256, 30000}} {
		for _, a := range scaleArchs() {
			cases = append(cases, tbCase{
				name: fmt.Sprintf("%s k%d load 0.5", a, rc.radix),
				o: testbench.Options{
					Router: router.Config{Arch: a, Radix: rc.radix, VCs: 4}, Load: 0.5, PktLen: 1,
					WarmupCycles: e.warm(3000), MeasureCycles: e.n(rc.cycles), DrainCycles: 1, Seed: e.seed,
				}})
		}
	}
	return runCases(cases), nil
}

// lowLoads are router_lowload's offered loads with the issue's
// measured-cycle counts per injection mode.
var lowLoads = []struct {
	tag              string
	load             float64
	perCycle, gapCyc int64
}{
	{"l001", 0.001, 2000000, 40000000},
	{"l010", 0.01, 2000000, 6000000},
	{"l050", 0.05, 1000000, 1500000},
}

func setupRouterLowLoad(e env) (func(*pass), error) {
	var cases []tbCase
	for _, a := range []router.Arch{router.ArchHierarchical, router.ArchBaseline} {
		for _, mode := range []traffic.InjMode{traffic.InjPerCycle, traffic.InjGap} {
			for _, l := range lowLoads {
				cycles := l.perCycle
				if mode == traffic.InjGap {
					cycles = l.gapCyc
				}
				cases = append(cases, tbCase{
					name: fmt.Sprintf("%s k64 %s load %g", a, mode, l.load),
					o: testbench.Options{
						Router: router.Config{Arch: a, Radix: 64}, Load: l.load, PktLen: 1,
						WarmupCycles: e.warm(3000), MeasureCycles: e.n(cycles), Seed: e.seed, Injection: mode,
					}})
			}
		}
	}
	return runCases(cases), nil
}

// netCases are the two Figure 19 networks at 4096 terminals.
func netCases(e env) []struct {
	name string
	o    network.Options
} {
	return []struct {
		name string
		o    network.Options
	}{
		{"k64d2", network.Options{Net: network.Config{Radix: 64, Digits: 2}, Load: 0.5, PktLen: 1,
			WarmupCycles: e.warm(1500), MeasureCycles: e.n(4500), Seed: e.seed}},
		{"k16d3", network.Options{Net: network.Config{Radix: 16, Digits: 3}, Load: 0.5, PktLen: 1,
			WarmupCycles: e.warm(500), MeasureCycles: e.n(1000), Seed: e.seed}},
	}
}

func shard2(o network.Options) (network.Result, error) {
	return shard.Run(shard.Options{Options: o, Workers: 2})
}

func setupNet(e env, run func(network.Options) (network.Result, error)) (func(*pass), error) {
	cases := netCases(e)
	// The topology is built here, so wiring tables land in setup_s; the
	// engine itself is constructed inside Run and is timed with it.
	for i := range cases {
		topo, err := cases[i].o.Topology()
		if err != nil {
			return nil, err
		}
		cases[i].o.Topo = topo
	}
	return func(p *pass) {
		for _, c := range cases {
			p.runNet(c.name, c.o, run)
		}
	}, nil
}

// verifyShard recomputes both networks with the serial driver and
// requires the sharded pass's digest to be the serial one.
func verifyShard(e env, digest []byte) error {
	run, err := setupNet(e, network.Run)
	if err != nil {
		return err
	}
	p := newPass(nil)
	run(p)
	if len(p.failures) > 0 {
		return fmt.Errorf("serial reference: %s", p.failures[0])
	}
	if !bytes.Equal(p.digest.Sum(nil), digest) {
		return fmt.Errorf("net_shard2 result digest differs from network.Run's on the same options")
	}
	return nil
}

// paperPairs are six saturation throughputs EXPERIMENTS.md compares
// against the paper: the figure and scalar that report each, the
// paper's value, and the radix the generator runs it at.
var paperPairs = []struct {
	fig, scalar string
	paper       float64
	radix       int
}{
	{"fig9", "saturation throughput low-radix(k=16)", 0.60, 16},
	{"fig9", "saturation throughput high-radix CVA", 0.50, 64},
	{"fig9", "saturation throughput high-radix OVA", 0.45, 64},
	{"fig13", "saturation throughput fully-buffered", 1.00, 64},
	{"fig17a", "saturation throughput subswitch-8", 1.00, 64},
	{"fig18", "saturation throughput burst/baseline", 0.50, 64},
}

const paperGapMetric = "experiments.paper_abs_err_pp"

// paperGap reads the six pairs off the generated tables: the mean
// absolute gap to the paper in percentage points, and the flits and
// measured cycles those six saturation runs report (throughput is
// flits × STCycles ÷ (radix × cycles)).
func paperGap(p *pass, s experiments.Scale, tables map[string]*stats.Table) (gapPP, flits float64, cycles int64) {
	st := float64(router.Config{}.WithDefaults().STCycles)
	var gap float64
	for _, pp := range paperPairs {
		t := tables[pp.fig]
		if t == nil {
			continue // the figure itself already failed
		}
		found := false
		for _, sc := range t.Scalars {
			if sc.Name == pp.scalar {
				found = true
				gap += math.Abs(sc.Value - pp.paper)
				flits += sc.Value * float64(pp.radix) * float64(s.Measure) / st
				cycles += s.Measure
			}
		}
		if !found {
			p.fail("%s: scalar %q missing", pp.fig, pp.scalar)
		}
	}
	return 100 * gap / float64(len(paperPairs)), flits, cycles
}

// figScale is experiments.Quick with the seed, two pool workers and no
// cache. factor shortens its phases (the ledger's serve probes, the
// smoke test); only the unshortened seed-1 scale is comparable with the
// goldens.
func figScale(e env, factor float64) experiments.Scale {
	s := experiments.Quick
	s.Seed = e.seed
	s.Workers = 2
	f := e.scale * factor
	if f != 1 {
		scale := func(c int64) int64 {
			if v := int64(math.Round(float64(c) * f)); v > 20 {
				return v
			}
			return 20
		}
		s.Warmup, s.Measure = scale(s.Warmup), scale(s.Measure)
		s.NetWarmup, s.NetMeasure = scale(s.NetWarmup), scale(s.NetMeasure)
	}
	return s
}

// setupFigs is figs_quick: the figure set at Quick. The generators run
// their own simulations, so the harness sees tables, not Results; the
// flit and cycle rates are the whole pass over what the six paper-pair
// saturation runs report, a restatement of wall_s.
func setupFigs(e env) (func(*pass), error) {
	figures, err := figsPass(e)
	if err != nil {
		return nil, err
	}
	s := figScale(e, 1)
	return func(p *pass) {
		gap, flits, cycles := paperGap(p, s, figures(p))
		p.extra[paperGapMetric] = gap
		p.flitHops, p.cycles = flits, cycles
	}, nil
}

// figsPass generates every registered experiment in registry order and
// returns the tables by name. The goldens apply at seed 1 (and not to
// the smoke test's shortened scale).
func figsPass(e env) (func(*pass) map[string]*stats.Table, error) {
	s := figScale(e, 1)
	goldens := map[string]string{}
	if e.seed == 1 && e.scale == 1 {
		for _, entry := range experiments.Registry {
			b, err := os.ReadFile(filepath.Join(e.root, "internal", "experiments", "testdata", entry.Name+".golden"))
			if err == nil {
				goldens[entry.Name] = string(b)
			} else if !os.IsNotExist(err) {
				return nil, err
			}
		}
	}
	return func(p *pass) map[string]*stats.Table {
		tables := map[string]*stats.Table{}
		for _, entry := range experiments.Registry {
			var t *stats.Table
			collect()
			span := p.tr.begin("experiments", entry.Name, -1, p.attempted, 0)
			t0 := time.Now()
			err := protect(func() (err error) { t, err = entry.Gen(s); return })
			d := time.Since(t0)
			p.tr.end(span)
			p.attempted++
			if err != nil {
				p.fail("%s: %v", entry.Name, err)
				continue
			}
			p.add(d, inWall|inSim|inSteady)
			p.probe()
			p.steadyOps++
			p.extra["experiments.cold_s."+entry.Name] = d.Seconds()
			p.digest.Write(stats.EncodeTable(t))
			tables[entry.Name] = t
			if want, ok := goldens[entry.Name]; ok && t.String() != want {
				p.fail("%s: table differs from internal/experiments/testdata/%s.golden", entry.Name, entry.Name)
			}
		}
		return tables
	}, nil
}
