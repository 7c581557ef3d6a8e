// Package experiments regenerates every table and figure in the paper's
// evaluation. Figures are data with one generator per shape: a latency
// figure is a latencyFig value (its lines as latencyCase values, run by
// latencyFig.gen), a saturation-throughput grid a satGrid value, a
// network figure a netFig value, and only the analytic figures, which
// evaluate the paper's models, are functions. Each Registry entry
// returns a stats.Table whose series correspond to the lines of the
// paper's figure; cmd/hrsweep prints them, the repository benchmarks
// time them, and EXPERIMENTS.md records their output against the
// paper's reported numbers.
package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"highradix/internal/cache"
	"highradix/internal/router"
	"highradix/internal/stats"
	"highradix/internal/sweep"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// Scale sizes the simulations: Full reproduces the figures at
// publication quality; Quick is for tests and benchmarks.
type Scale struct {
	// Warmup and Measure are the phase lengths in cycles.
	Warmup, Measure int64
	// Loads are the offered-load sweep points for latency-load figures.
	Loads []float64
	// NetLoads are the sweep points for the network figure (coarser,
	// because network runs are expensive).
	NetLoads []float64
	// NetWarmup and NetMeasure size the network runs.
	NetWarmup, NetMeasure int64
	// FullNetwork selects the paper's 4096-node networks for Figure 19;
	// when false the figure runs a reduced 256-node pair.
	FullNetwork bool
	// Seed drives all runs.
	Seed uint64
	// Workers sizes the parallel sweep pool the generators fan their
	// (arch, load, pattern) points out on. 0 selects GOMAXPROCS; 1
	// forces serial execution. Every run owns its RNG (seeded from
	// Seed), so the produced tables are identical for every value.
	Workers int
	// Cache, when non-nil, is the content-addressed result store every
	// generator consults before running a simulation point. Only points
	// are stored, under keys that hold every option of the run, so a
	// table is always its current generator run over them: serving a
	// point from the store is byte-identical to recomputing it, and nil
	// disables caching entirely.
	Cache *cache.Store
	// dense forces per-cycle stepping in every run (NoFastForward of
	// testbench.Options and network.Options). Tables are byte-identical
	// either way; only this package's TestGoldenDense sets it.
	dense bool
	// shards, when non-zero, runs every network point on the epoch
	// runner at that many workers (network.RunSharded) rather than on the
	// ones the CPU budget gives it. Tables are byte-identical either way;
	// only this package's TestGolden/fig19_sharded sets it.
	shards int
	// missed, when non-nil, is set by the first point that had to be
	// simulated rather than read from Cache; Table hands each generator
	// a fresh one to report its hit.
	missed *atomic.Bool
}

// Full is the publication-quality scale.
var Full = Scale{
	Warmup:  3000,
	Measure: 8000,
	Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65,
		0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.98},
	NetLoads:    []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
	NetWarmup:   1500,
	NetMeasure:  3000,
	FullNetwork: true,
	Seed:        1,
}

// Quick is the reduced scale for tests and benchmarks.
var Quick = Scale{
	Warmup:     800,
	Measure:    1600,
	Loads:      []float64{0.2, 0.4, 0.6, 0.8, 0.95},
	NetLoads:   []float64{0.2, 0.5, 0.8},
	NetWarmup:  600,
	NetMeasure: 1200,
	Seed:       1,
}

// pool builds the sweep pool the generators submit their points to.
func (s Scale) pool() *sweep.Pool { return sweep.New(s.Workers) }

// runTB runs one single-router point, consulting the scale's cache
// when configured: a warm key decodes the stored Result without
// touching the pool (hit); a cold one simulates under a pool slot
// (inside the store's single-flight), stores the bytes and notes the
// miss for Table. With Cache nil this is exactly
// sweep.Do(p, testbench.Run).
func (s Scale) runTB(p *sweep.Pool, o testbench.Options) (res testbench.Result, hit bool, err error) {
	key, ok := o.CacheKey()
	res, hit, err = sweep.RunCached(p, s.Cache, key, ok,
		func() (testbench.Result, error) { return testbench.Run(o) })
	s.note(hit)
	return res, hit, err
}

// note records a point that was not served from the store on the flag
// Table handed the generator, if any.
func (s Scale) note(hit bool) {
	if !hit && s.missed != nil {
		s.missed.Store(true)
	}
}

// Point runs the single-router point the latency figures run for cfg at
// load under pattern (nil: uniform), through the same options and cache
// keys, so a point any figure computed is a hit here and vice versa.
func (s Scale) Point(p *sweep.Pool, cfg router.Config, pattern traffic.Pattern, load float64) (testbench.Result, bool, error) {
	o := s.caseOpts(latencyCase{cfg: cfg, pattern: pattern})
	o.Load = load
	return s.runTB(p, o)
}

// satThroughput measures accepted throughput of o at offered load 1.0.
// It is the leaf job the generators submit to the pool for their
// saturation-throughput scalars.
func (s Scale) satThroughput(p *sweep.Pool, o testbench.Options) (float64, error) {
	res, _, err := s.runTB(p, testbench.Saturating(o))
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}

// curve is sweep.Curve over xs for one line of a figure. With a store
// attached it first runs the line's points in order, one at a time, for
// as long as they are stored, and hands sweep.Curve the rest after the
// first that was not: a warm line is then read exactly as the serial
// early-stopping loop reads it, and never runs a point past its knee
// that the cold run's lookahead happened to skip.
func (s Scale) curve(p *sweep.Pool, name string, xs []float64, run func(x float64) (sweep.Point, bool, error)) (*stats.Series, error) {
	series := &stats.Series{Name: name}
	for s.Cache != nil && len(xs) > 0 {
		pt, hit, err := run(xs[0])
		if err != nil {
			return nil, err
		}
		series.Add(xs[0], pt.Y, pt.Saturated)
		if xs = xs[1:]; pt.Saturated {
			return series, nil
		}
		if !hit {
			break
		}
	}
	rest, err := sweep.Curve(p, name, xs, func(x float64) (sweep.Point, error) {
		pt, _, err := run(x)
		return pt, err
	})
	if err != nil {
		return nil, err
	}
	series.Points = append(series.Points, rest.Points...)
	return series, nil
}

// latencyCase declares one line of a latency-versus-load figure: a
// named router configuration and its traffic. A zero traffic field is
// the paper's default: single-flit packets, uniform random destinations,
// Bernoulli injection.
type latencyCase struct {
	name    string
	cfg     router.Config
	pktLen  int
	pattern traffic.Pattern
	bursty  bool
}

// caseOpts builds the options of case c at this scale, load unset.
func (s Scale) caseOpts(c latencyCase) testbench.Options {
	return testbench.Options{
		Router:        c.cfg,
		PktLen:        c.pktLen,
		Pattern:       c.pattern,
		Bursty:        c.bursty,
		WarmupCycles:  s.Warmup,
		MeasureCycles: s.Measure,
		Seed:          s.Seed,
		NoFastForward: s.dense,
	}
}

// latencyFig is one latency-versus-load figure as data. Its table holds
// a curve and a saturation-throughput scalar per case, then scalars,
// then note; x and y replace the default axis labels when set.
type latencyFig struct {
	title, note, x, y string
	cases             []latencyCase
	scalars           []stats.Scalar
}

// gen is the Generator of every latency figure. Its receiver is a
// pointer so that a Registry method value reads the figure itself, not
// a copy taken when Registry is initialised.
func (f *latencyFig) gen(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  f.title,
		XLabel: cmp.Or(f.x, "offered load"),
		YLabel: cmp.Or(f.y, "latency (cycles)"),
	}
	if err := s.latencyFigure(t, f.cases); err != nil {
		return nil, err
	}
	t.Scalars = append(t.Scalars, f.scalars...)
	if f.note != "" {
		t.Notes = append(t.Notes, f.note)
	}
	return t, nil
}

// latencyFigure runs the declared cases on the sweep pool. Each case
// contributes a latency-load curve (truncated at its first saturated
// point, like the paper's figures) and a saturation-throughput scalar;
// series and scalars are appended to t in declaration order, so the
// table is identical at every pool size.
func (s Scale) latencyFigure(t *stats.Table, cases []latencyCase) error {
	p := s.pool()
	type caseOut struct {
		series *stats.Series
		thr    float64
	}
	outs, err := sweep.Gather(cases, func(c latencyCase) (caseOut, error) {
		base := s.caseOpts(c)
		series, err := s.curve(p, c.name, s.Loads, func(load float64) (sweep.Point, bool, error) {
			o := base
			o.Load = load
			res, hit, err := s.runTB(p, o)
			return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, hit, err
		})
		if err != nil {
			return caseOut{}, err
		}
		thr, err := s.satThroughput(p, base)
		if err != nil {
			return caseOut{}, err
		}
		return caseOut{series: series, thr: thr}, nil
	})
	if err != nil {
		return err
	}
	for i, out := range outs {
		t.AddSeries(out.series)
		t.AddScalar("saturation throughput "+cases[i].name, out.thr, "fraction of capacity")
	}
	return nil
}

// satGrid is a saturation-throughput grid as data: a series per row,
// a point per column at the column's x. Cell (row, col) runs the row's
// router under the column's traffic, at the column's radix when the
// column sets one.
type satGrid struct {
	title, x   string
	rows, cols []latencyCase
	xs         []float64
	notes      []string
}

// gen is the Generator of every saturation grid. It submits the whole
// grid to the pool at once; its receiver is a pointer for the reason
// latencyFig.gen's is.
func (g *satGrid) gen(s Scale) (*stats.Table, error) {
	var cells []latencyCase
	for _, r := range g.rows {
		for _, c := range g.cols {
			// The right side is read before c.cfg is replaced.
			c.cfg, c.cfg.Radix = r.cfg, cmp.Or(c.cfg.Radix, r.cfg.Radix)
			cells = append(cells, c)
		}
	}
	p := s.pool()
	thrs, err := sweep.Gather(cells, func(c latencyCase) (float64, error) {
		return s.satThroughput(p, s.caseOpts(c))
	})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{Title: g.title, XLabel: g.x, YLabel: "saturation throughput (fraction of capacity)", Notes: slices.Clone(g.notes)}
	for ri, r := range g.rows {
		series := &stats.Series{Name: r.name}
		for ci, x := range g.xs {
			series.Add(x, thrs[ri*len(g.cols)+ci], false)
		}
		t.AddSeries(series)
	}
	return t, nil
}

// Registry maps experiment names (as accepted by cmd/hrsweep -exp) to
// their generator functions.
type Generator func(Scale) (*stats.Table, error)

// Entry is one registered experiment.
type Entry struct {
	Name string
	Desc string
	Gen  Generator
}

// Registry lists every reproducible experiment.
var Registry = []Entry{
	{"fig1", "router pin-bandwidth scaling 1985-2010 (historical data + trend fits)", Fig1},
	{"fig2", "latency-optimal radix vs router aspect ratio", Fig2},
	{"fig3", "network latency and cost vs radix for 2003/2010 technologies", Fig3},
	{"fig9", "latency vs offered load, baseline high-radix (CVA/OVA) vs low-radix", fig9.gen},
	{"fig11", "prioritized (dual-arbiter) vs single-arbiter speculation, 1 VC and 4 VC", fig11.gen},
	{"fig13", "fully buffered crossbar vs baseline vs low-radix", fig13.gen},
	{"fig14", "crosspoint buffer size sweep, short and long packets", fig14.gen},
	{"fig15", "storage area vs wire area of the fully buffered crossbar", Fig15},
	{"fig17a", "hierarchical crossbar, uniform random traffic, subswitch sizes", fig17a.gen},
	{"fig17b", "hierarchical crossbar, worst-case traffic", fig17b.gen},
	{"fig17c", "long packets at equal total buffer storage", fig17c.gen},
	{"fig17d", "storage bits vs radix, hierarchical vs fully buffered", Fig17d},
	{"fig18", "nonuniform traffic: diagonal, hotspot, bursty (Table 1)", fig18.gen},
	{"fig19", "4096-node Clos network: radix-64 (3 stages) vs radix-16 (5 stages)", fig19.gen},
	{"topo", "extension: ring and 2D-torus topologies, latency vs offered load", figTopo.gen},
	{"table1", "saturation throughput of every architecture on every Table 1 pattern", table1.gen},
	{"creditbus", "ablation: shared credit-return bus vs ideal credit return", ablCreditBus.gen},
	{"sharedxp", "ablation: shared-buffer (ACK/NACK) crosspoints vs per-VC buffers", ablSharedXpoint.gen},
	{"localgroup", "ablation: local arbitration group size m", ablLocalGroup.gen},
	{"specpolicy", "ablation: speculative output-VC bid policy (Section 4.4 re-bidding)", ablSpecPolicy.gen},
	{"allociters", "ablation: allocation iterations of the centralized low-radix router", ablAllocIters.gen},
	{"radixsweep", "extension: saturation throughput vs radix for the main organizations", radixSweep.gen},
	{"radixscale", "extension: latency-throughput at radix 64/128/256, buffered and hierarchical", radixScale.gen},
	{"fig_alloc", "extension: allocation-policy families head to head — baseline vs VOQ/iSLIP vs dynamic VC", figAlloc.gen},
}

// ByName finds a registered experiment's generator.
func ByName(name string) (Generator, error) {
	for _, e := range Registry {
		if e.Name == name {
			return e.Gen, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", name)
}

// Table runs the named experiment's generator at this scale. Tables are
// never stored: with a store attached, each of the generator's points is
// looked up there before it is simulated, and hit reports that a store
// is attached and no point had to be simulated.
func Table(name string, s Scale) (t *stats.Table, hit bool, err error) {
	gen, err := ByName(name)
	if err != nil {
		return nil, false, err
	}
	s.missed = new(atomic.Bool)
	if t, err = gen(s); err != nil {
		return nil, false, err
	}
	return t, s.Cache != nil && !s.missed.Load(), nil
}
