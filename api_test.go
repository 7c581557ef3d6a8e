package highradix_test

import (
	"strings"
	"testing"

	"highradix"
)

// The facade tests exercise the library exactly as a downstream user
// would: construct, simulate, sweep, and query the analytic models.

func TestPublicSimulate(t *testing.T) {
	res, err := highradix.Simulate(highradix.SimOptions{
		Router:        highradix.RouterConfig{Arch: highradix.Hierarchical, Radix: 16, VCs: 2, SubSize: 4},
		Load:          0.5,
		WarmupCycles:  400,
		MeasureCycles: 800,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 || res.AvgLatency <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestPublicNewRouter(t *testing.T) {
	r, err := highradix.NewRouter(highradix.RouterConfig{Arch: highradix.Buffered, Radix: 8, VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Config().Radix != 8 {
		t.Fatalf("config radix %d", r.Config().Radix)
	}
	if !r.CanAccept(0, 0) {
		t.Fatal("fresh router rejects flits")
	}
}

func TestPublicSweep(t *testing.T) {
	s, err := highradix.SweepLoads("x", []float64{0.2, 0.4}, highradix.SimOptions{
		Router:        highradix.RouterConfig{Arch: highradix.Buffered, Radix: 16, VCs: 2},
		WarmupCycles:  300,
		MeasureCycles: 600,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("sweep points %d", len(s.Points))
	}
}

// checkSweep holds a load sweep to the paper's curve contract: points
// in load order, ending on the first saturated one, each the result a
// lone run at its load reports.
func checkSweep(t *testing.T, s *highradix.Series, loads []float64, lone func(load float64) (latency float64, saturated bool)) {
	t.Helper()
	if len(s.Points) < 2 || !s.Points[len(s.Points)-1].Saturated {
		t.Fatalf("sweep %+v does not end on a saturated point after an unsaturated one", s.Points)
	}
	for i, p := range s.Points {
		if p.X != loads[i] {
			t.Fatalf("point %d at load %v, want %v", i, p.X, loads[i])
		}
		if p.Saturated && i < len(s.Points)-1 {
			t.Fatalf("sweep continued past the saturated point at load %v", p.X)
		}
		if lat, sat := lone(p.X); p.Y != lat || p.Saturated != sat {
			t.Fatalf("load %v: swept (%v, %v), lone run (%v, %v)", p.X, p.Y, p.Saturated, lat, sat)
		}
	}
}

func TestSweepStopsAtSaturation(t *testing.T) {
	base := highradix.SimOptions{
		Router:        highradix.RouterConfig{Arch: highradix.Baseline, Radix: 16, VCs: 2},
		WarmupCycles:  500,
		MeasureCycles: 1000,
		DrainCycles:   3000,
		Seed:          1,
	}
	loads := []float64{0.2, 0.9, 0.95, 0.98}
	s, err := highradix.SweepLoads("baseline", loads, base)
	if err != nil {
		t.Fatal(err)
	}
	checkSweep(t, s, loads, func(load float64) (float64, bool) {
		o := base
		o.Load = load
		res, err := highradix.Simulate(o)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatency, res.Saturated
	})
}

func TestSweepNetworkStopsAtSaturation(t *testing.T) {
	base := highradix.NetOptions{
		Net:           highradix.NetworkConfig{Radix: 4, Digits: 2},
		WarmupCycles:  300,
		MeasureCycles: 600,
		SatLatency:    60, // crossed between loads 0.8 and 0.9
		Seed:          1,
	}
	loads := []float64{0.2, 0.5, 0.8, 0.9, 1.0}
	s, err := highradix.SweepNetwork("clos", loads, base)
	if err != nil {
		t.Fatal(err)
	}
	checkSweep(t, s, loads, func(load float64) (float64, bool) {
		o := base
		o.Load = load
		res, err := highradix.SimulateNetwork(o)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatency, res.Saturated
	})
}

func TestPublicPatterns(t *testing.T) {
	if highradix.UniformTraffic(8).Name() != "uniform" {
		t.Fatal("uniform constructor broken")
	}
	p, err := highradix.PatternByName("diagonal", 8, 4, 2)
	if err != nil || p.Name() != "diagonal" {
		t.Fatalf("PatternByName: %v %v", p, err)
	}
}

func TestPublicAnalytic(t *testing.T) {
	if k := highradix.OptimalRadix(highradix.Tech2003.AspectRatio()); k < 38 || k > 42 {
		t.Fatalf("optimal radix %v", k)
	}
	m := highradix.DefaultAreaModel()
	fb, err := highradix.PriceRouter(m, highradix.RouterConfig{Arch: highradix.Buffered})
	if err != nil {
		t.Fatal(err)
	}
	h, err := highradix.PriceRouter(m, highradix.RouterConfig{Arch: highradix.Hierarchical, SubSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s := 1 - h.TotalMm2()/fb.TotalMm2(); s < 0.3 || s > 0.5 {
		t.Fatalf("savings %v", s)
	}
	if k := highradix.AreaCrossover(m); k < 40 || k > 62 {
		t.Fatalf("crossover at radix %d, paper reports ~50", k)
	}
	if _, err := highradix.PriceRouter(m, highradix.RouterConfig{Radix: 2048}); err == nil {
		t.Fatal("priced a router above the radix ceiling")
	}
}

func TestPublicNetwork(t *testing.T) {
	res, err := highradix.SimulateNetwork(highradix.NetOptions{
		Net:           highradix.NetworkConfig{Radix: 4, Digits: 2},
		Load:          0.3,
		WarmupCycles:  300,
		MeasureCycles: 600,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Fatal("network delivered nothing")
	}
}

func TestPublicTrace(t *testing.T) {
	tr, err := highradix.LoadTrace(strings.NewReader("10,0,1\n13,1,0,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := highradix.Simulate(highradix.SimOptions{
		Router:        highradix.RouterConfig{Arch: highradix.Buffered, Radix: 4, VCs: 2},
		Trace:         tr,
		WarmupCycles:  5,
		MeasureCycles: 100,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 2 {
		t.Fatalf("replayed %d packets, want 2", res.Packets)
	}
}

func TestPublicExperiment(t *testing.T) {
	tab, err := highradix.Experiment("fig2", highradix.QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "optimal radix") {
		t.Fatal("fig2 table malformed")
	}
	if _, err := highradix.Experiment("nope", highradix.QuickScale); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}
