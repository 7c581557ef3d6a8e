package testbench

import (
	"testing"

	"highradix/internal/check"
	"highradix/internal/drive"
	"highradix/internal/router"
	"highradix/internal/traffic"
)

// The two systems Run puts behind a source bank.
var (
	_ drive.Device = router.Router(nil)
	_ drive.Device = (*check.Checked)(nil)
)

func quickOpts(cfg router.Config, load float64) Options {
	return Options{
		Router:        cfg,
		Load:          load,
		WarmupCycles:  500,
		MeasureCycles: 1000,
		Seed:          1,
	}
}

func TestRunLowLoadIsUnsaturated(t *testing.T) {
	res, err := Run(quickOpts(router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2}, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("20% load reported saturated")
	}
	if res.AvgLatency <= 0 || res.Packets == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Accepted throughput must track offered load when unsaturated.
	if res.Throughput < 0.15 || res.Throughput > 0.25 {
		t.Fatalf("throughput %v at offered 0.2", res.Throughput)
	}
}

func TestRunDetectsSaturation(t *testing.T) {
	// The baseline saturates near 55-60%; offered load 0.95 must be
	// flagged.
	o := quickOpts(router.Config{Arch: router.ArchBaseline, Radix: 16, VCs: 2}, 0.95)
	o.DrainCycles = 3000
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatalf("baseline at 95%% offered load not flagged saturated (latency %v thr %v)",
			res.AvgLatency, res.Throughput)
	}
}

func TestLatencyIncreasesWithLoad(t *testing.T) {
	cfg := router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2}
	low, err := Run(quickOpts(cfg, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(quickOpts(cfg, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	if high.AvgLatency <= low.AvgLatency {
		t.Fatalf("latency did not rise with load: %.2f @0.1 vs %.2f @0.7",
			low.AvgLatency, high.AvgLatency)
	}
}

func TestSaturationThroughputOrdering(t *testing.T) {
	// The paper's central quantitative claims at small scale: fully
	// buffered and hierarchical beat the baseline on uniform traffic.
	base := func(cfg router.Config) Options {
		o := quickOpts(cfg, 1.0)
		o.WarmupCycles, o.MeasureCycles = 800, 1600
		return o
	}
	thr := func(cfg router.Config) float64 {
		v, err := SaturationThroughput(base(cfg))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	buffered := thr(router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2})
	hier := thr(router.Config{Arch: router.ArchHierarchical, Radix: 16, VCs: 2, SubSize: 4})
	baseline := thr(router.Config{Arch: router.ArchBaseline, Radix: 16, VCs: 2})
	if buffered < baseline+0.15 {
		t.Errorf("fully buffered %.3f not clearly above baseline %.3f", buffered, baseline)
	}
	if hier < baseline+0.15 {
		t.Errorf("hierarchical %.3f not clearly above baseline %.3f", hier, baseline)
	}
	if buffered < 0.85 {
		t.Errorf("fully buffered saturation %.3f, expected near 1", buffered)
	}
}

func TestPatternsRunEndToEnd(t *testing.T) {
	pats := []traffic.Pattern{
		traffic.NewDiagonal(16),
		traffic.NewHotspot(16, 2),
		traffic.NewWorstCaseHierarchical(16, 4),
	}
	cfg := router.Config{Arch: router.ArchHierarchical, Radix: 16, VCs: 2, SubSize: 4}
	for _, p := range pats {
		o := quickOpts(cfg, 0.2)
		o.Pattern = p
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Packets == 0 || res.Saturated {
			t.Fatalf("%s: %+v", p.Name(), res)
		}
	}
}

func TestBurstyInjection(t *testing.T) {
	o := quickOpts(router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2}, 0.3)
	o.Bursty = true
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Fatal("bursty run delivered nothing")
	}
}

func TestMultiFlitPackets(t *testing.T) {
	o := quickOpts(router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2}, 0.4)
	o.PktLen = 10
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.Packets == 0 {
		t.Fatalf("10-flit run at 40%%: %+v", res)
	}
	// A 10-flit packet needs at least 10 traversal slots.
	if res.AvgLatency < 10*4 {
		t.Fatalf("latency %.1f below 10-flit serialization floor", res.AvgLatency)
	}
}

func TestRunRejectsBadLoads(t *testing.T) {
	if _, err := Run(quickOpts(router.Config{}, -0.5)); err == nil {
		t.Error("negative load accepted")
	}
	o := quickOpts(router.Config{}, 8.0)
	if _, err := Run(o); err == nil {
		t.Error("load requiring >1 packet/cycle accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	o := quickOpts(router.Config{Arch: router.ArchHierarchical, Radix: 16, VCs: 2, SubSize: 4}, 0.5)
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency || a.Throughput != b.Throughput || a.Packets != b.Packets {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}
