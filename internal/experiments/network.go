package experiments

import (
	"highradix/internal/network"
	"highradix/internal/stats"
	"highradix/internal/sweep"
)

// runNet executes one network point behind the scale's cache, under a
// pool slot, on the workers the CPU budget gives it (network.Run). Every
// worker count is byte-identical (the determinism suite), so the cache
// key has none. A miss is noted for Table, as runTB notes one.
func (s Scale) runNet(p *sweep.Pool, o network.Options) (network.Result, bool, error) {
	key, ok := o.CacheKey()
	res, hit, err := sweep.RunCached(p, s.Cache, key, ok,
		func() (network.Result, error) {
			if s.shards > 0 {
				return network.RunSharded(o, s.shards)
			}
			return network.Run(o)
		})
	s.note(hit)
	return res, hit, err
}

// netCase declares one line of a network latency-versus-load figure: a
// name and the options selecting its network (Net or Topo).
type netCase struct {
	name string
	o    network.Options
}

// netFig is one network latency-versus-load figure as data. Its table
// holds a curve, a zero-load latency and a hop count per case, then
// note. At a scale without FullNetwork, reducedTitle and reduced, when
// set, stand in for title and cases.
type netFig struct {
	title, reducedTitle, note string
	cases, reduced            []netCase
}

// gen is the Generator of every network figure, its receiver a pointer
// for the reason latencyFig.gen's is. Each case contributes a
// latency-load curve and, from a run at 5% load, its zero-load latency
// and hop count; series and scalars are appended in declaration order.
// Network runs are the most expensive points in the repository, so
// every case and all its per-load points go through the pool.
func (f *netFig) gen(s Scale) (*stats.Table, error) {
	title, cases := f.title, f.cases
	if f.reduced != nil && !s.FullNetwork {
		title, cases = f.reducedTitle, f.reduced
	}
	t := &stats.Table{Title: title, XLabel: "offered load", YLabel: "latency (cycles)"}
	p := s.pool()
	type caseOut struct {
		series *stats.Series
		zero   network.Result
	}
	outs, err := sweep.Gather(cases, func(c netCase) (caseOut, error) {
		base := c.o
		base.WarmupCycles, base.MeasureCycles = s.NetWarmup, s.NetMeasure
		base.Seed, base.NoFastForward = s.Seed, s.dense
		series, err := s.curve(p, c.name, s.NetLoads, func(load float64) (sweep.Point, bool, error) {
			o := base
			o.Load = load
			res, hit, err := s.runNet(p, o)
			return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, hit, err
		})
		if err != nil {
			return caseOut{}, err
		}
		base.Load = 0.05
		zero, _, err := s.runNet(p, base)
		if err != nil {
			return caseOut{}, err
		}
		return caseOut{series: series, zero: zero}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		t.AddSeries(out.series)
		t.AddScalar("zero-load latency "+cases[i].name, out.zero.AvgLatency, "cycles")
		t.AddScalar("avg hops "+cases[i].name, out.zero.AvgHops, "router traversals")
	}
	t.Notes = append(t.Notes, f.note)
	return t, nil
}

// fig19 reproduces Figure 19: latency versus offered load for a
// 4096-node Clos network built from radix-64 routers (three stages,
// 64^2 terminals) and from radix-16 routers (five stages, 16^3
// terminals), with oblivious routing (random middle stages) and uniform
// random traffic. At Quick scale the network is shrunk to 256 nodes
// (16^2 vs 4^4), preserving the high-vs-low-radix stage contrast while
// keeping test and benchmark runtimes reasonable.
var fig19 = netFig{
	title: "Figure 19: 4096-node Clos, radix-64 (3 stages) vs radix-16 (5 stages)",
	cases: []netCase{
		{"radix-64 (3 stages)", network.Options{Net: network.Config{Radix: 64, Digits: 2}}},
		{"radix-16 (5 stages)", network.Options{Net: network.Config{Radix: 16, Digits: 3}}},
	},
	reducedTitle: "Figure 19 (reduced): 256-node Clos, radix-16 (3 stages) vs radix-4 (7 stages)",
	reduced: []netCase{
		{"radix-16 (3 stages)", network.Options{Net: network.Config{Radix: 16, Digits: 2}}},
		{"radix-4 (7 stages)", network.Options{Net: network.Config{Radix: 4, Digits: 4}}},
	},
	note: "paper: the high-radix network has lower zero-load latency network-wide despite the higher per-router latency, because hop count falls",
}

// The topologies of figTopo: a 16-node bidirectional ring and a 4x4
// torus, both with dateline VC deadlock avoidance, and a Clos of the
// same terminal count. Topologies are immutable, so every run may
// share one.
var (
	ring16  = must(network.NewTorus(network.TorusConfig{X: 16, Y: 1}))
	torus44 = must(network.NewTorus(network.TorusConfig{X: 4, Y: 4}))
	clos16  = must(network.NewClos(network.Config{Radix: 4, Digits: 2}))
)

// must returns v, panicking on err: a package-level value built from
// constants fails only on a mistake in its declaration.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// figTopo is an extension beyond the paper: latency versus offered load
// for the direct topologies the generalized engine supports against a
// Clos of the same terminal count. It shows the classic result the
// paper argues from: at equal terminal count, the low-degree direct
// networks pay more hops and saturate far earlier than the multistage
// network (the ring's uniform-traffic capacity is ~8/N of a terminal's
// bandwidth).
var figTopo = netFig{
	title: "Topology extension: 16-node ring vs 4x4 torus vs 16-node Clos",
	cases: []netCase{
		{"ring-16", network.Options{Topo: ring16}},
		{"torus-4x4", network.Options{Topo: torus44}},
		{"clos-16 (radix-4)", network.Options{Topo: clos16}},
	},
	note: "extension: direct low-degree topologies pay hop count and early saturation; the multistage Clos trades per-hop latency for path diversity",
}
