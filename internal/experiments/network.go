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

// netFigure runs the declared cases on the sweep pool. Each case
// contributes a latency-load curve and, from a run at 5% load, its
// zero-load latency and hop count; series and scalars are appended to t
// in declaration order. Network runs are the most expensive points in
// the repository, so every case and all its per-load points go through
// the pool.
func (s Scale) netFigure(t *stats.Table, cases []netCase) error {
	p := s.pool()
	type caseOut struct {
		series *stats.Series
		zero   network.Result
	}
	outs, err := sweep.Gather(cases, func(c netCase) (caseOut, error) {
		base := c.o
		base.WarmupCycles, base.MeasureCycles = s.NetWarmup, s.NetMeasure
		base.Seed, base.NoFastForward, base.Injection = s.Seed, s.dense, s.Injection
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
		return err
	}
	for i, out := range outs {
		t.AddSeries(out.series)
		t.AddScalar("zero-load latency "+cases[i].name, out.zero.AvgLatency, "cycles")
		t.AddScalar("avg hops "+cases[i].name, out.zero.AvgHops, "router traversals")
	}
	return nil
}

// Fig19 reproduces Figure 19: latency versus offered load for a
// 4096-node Clos network built from radix-64 routers (three stages,
// 64^2 terminals) and from radix-16 routers (five stages, 16^3
// terminals), with oblivious routing (random middle stages) and uniform
// random traffic. At Quick scale the network is shrunk to 256 nodes
// (16^2 vs 4^4), preserving the high-vs-low-radix stage contrast while
// keeping test and benchmark runtimes reasonable.
func Fig19(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 19: 4096-node Clos, radix-64 (3 stages) vs radix-16 (5 stages)",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	cases := []netCase{
		{"radix-64 (3 stages)", network.Options{Net: network.Config{Radix: 64, Digits: 2}}},
		{"radix-16 (5 stages)", network.Options{Net: network.Config{Radix: 16, Digits: 3}}},
	}
	if !s.FullNetwork {
		t.Title = "Figure 19 (reduced): 256-node Clos, radix-16 (3 stages) vs radix-4 (7 stages)"
		cases = []netCase{
			{"radix-16 (3 stages)", network.Options{Net: network.Config{Radix: 16, Digits: 2}}},
			{"radix-4 (7 stages)", network.Options{Net: network.Config{Radix: 4, Digits: 4}}},
		}
	}
	if err := s.netFigure(t, cases); err != nil {
		return nil, err
	}
	t.AddNote("paper: the high-radix network has lower zero-load latency network-wide despite the higher per-router latency, because hop count falls")
	return t, nil
}

// FigTopo is an extension beyond the paper: latency versus offered load
// for the direct topologies the generalized engine supports — a 16-node
// bidirectional ring and a 4x4 torus, both with dateline VC deadlock
// avoidance — contrasted against a Clos of the same terminal count. It
// shows the classic result the paper argues from: at equal terminal
// count, the low-degree direct networks pay more hops and saturate far
// earlier than the multistage network (the ring's uniform-traffic
// capacity is ~8/N of a terminal's bandwidth).
func FigTopo(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Topology extension: 16-node ring vs 4x4 torus vs 16-node Clos",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	ring, err := network.NewTorus(network.TorusConfig{X: 16, Y: 1})
	if err != nil {
		return nil, err
	}
	torus, err := network.NewTorus(network.TorusConfig{X: 4, Y: 4})
	if err != nil {
		return nil, err
	}
	clos, err := network.NewClos(network.Config{Radix: 4, Digits: 2})
	if err != nil {
		return nil, err
	}
	cases := []netCase{
		{"ring-16", network.Options{Topo: ring}},
		{"torus-4x4", network.Options{Topo: torus}},
		{"clos-16 (radix-4)", network.Options{Topo: clos}},
	}
	if err := s.netFigure(t, cases); err != nil {
		return nil, err
	}
	t.AddNote("extension: direct low-degree topologies pay hop count and early saturation; the multistage Clos trades per-hop latency for path diversity")
	return t, nil
}
