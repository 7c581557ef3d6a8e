// Benchmarks regenerating every table and figure of the paper at Quick
// scale (one full experiment per iteration), plus microbenchmarks of
// the simulator's hot paths and the steady-state allocation gate over
// them. Key result scalars are attached as benchmark metrics so
// `go test -bench=.` doubles as a smoke reproduction of the paper:
//
//	go test -bench=Experiment -benchmem
//
// For publication-scale figures use cmd/hrsweep instead.
package highradix_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"highradix"
	"highradix/internal/experiments"
	"highradix/internal/traffic"
)

// BenchmarkExperiment runs every registered experiment, one full
// regeneration per iteration, and reports its first few scalar
// headlines as metrics. It ranges over the registry, so a new entry is
// benchmarked by construction (fig19 runs the reduced network at Quick
// scale; cmd/hrsweep runs the 4096-node version).
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.Registry {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			var last *highradix.Table
			for i := 0; i < b.N; i++ {
				t, err := highradix.Experiment(e.Name, highradix.QuickScale)
				if err != nil {
					b.Fatal(err)
				}
				last = t
			}
			for i, sc := range last.Scalars {
				if i >= 6 {
					break
				}
				b.ReportMetric(sc.Value, strings.ReplaceAll(sc.Name, " ", "_"))
			}
		})
	}
}

// stepPoints lists every registered architecture at each of its
// descriptor's BenchRadices (the low-radix router at its design point
// 16 plus the high-radix operating point; the high-radix architectures
// at the paper's radix 64 and at 128 and 256 to expose scaling), so a
// newly registered architecture joins BenchmarkStep and the allocation
// gate by construction.
func stepPoints() []highradix.RouterConfig {
	var cfgs []highradix.RouterConfig
	for _, arch := range highradix.Architectures() {
		d, _ := highradix.DescribeArch(arch)
		for _, radix := range d.BenchRadices {
			cfgs = append(cfgs, highradix.RouterConfig{Arch: arch, Radix: radix})
		}
	}
	return cfgs
}

// stepOptions is the one single-router hot-path measurement: uniform
// traffic, 2,000 cycles of warmup, no drain, so everything from
// OnMeasureStart to the end of the run is steady-state stepping.
func stepOptions(cfg highradix.RouterConfig, load float64, cycles int64) highradix.SimOptions {
	return highradix.SimOptions{
		Router:        cfg,
		Load:          load,
		WarmupCycles:  2000,
		MeasureCycles: cycles,
		DrainCycles:   1,
		Seed:          1,
	}
}

// BenchmarkStep times one router cycle at 60% uniform load for every
// step point. The timer restarts at the first measured cycle, so ns/op
// and allocs/op cover steady-state stepping only, not router
// construction or warmup.
func BenchmarkStep(b *testing.B) {
	for _, cfg := range stepPoints() {
		b.Run(fmt.Sprintf("%s/k%d", cfg.Arch, cfg.Radix), func(b *testing.B) {
			b.ReportAllocs()
			o := stepOptions(cfg, 0.6, int64(b.N)+1)
			o.OnMeasureStart = b.ResetTimer
			if _, err := highradix.Simulate(o); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// The allocation gate: gateCycles is its measured window, gateBound the
// heap allocations per measured cycle it tolerates (the comments on the
// two tests give the measurements it was picked from).
const (
	gateCycles = 20000
	gateBound  = 0.05
)

// mallocsPerCycle runs o and returns the heap allocations made from its
// first measured cycle to the end of the run, per measured cycle. The
// count is the process's, so the tests using it must not run in
// parallel with anything.
func mallocsPerCycle(t *testing.T, o highradix.SimOptions) float64 {
	t.Helper()
	var start, end runtime.MemStats
	o.OnMeasureStart = func() { runtime.ReadMemStats(&start) }
	if _, err := highradix.Simulate(o); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&end)
	return float64(end.Mallocs-start.Mallocs) / float64(o.MeasureCycles)
}

// TestStepSteadyStateAllocs is the allocation gate: Step and the
// driver's hot path allocate nothing, at every step point. What a
// warmed run still allocates is slices reaching a new high-water mark —
// latency samples and the free list — 19 to 43 allocations in 20,000
// cycles (lowradix 21 / 19 at radix 16 / 64, dynvc 19 / 21 / 29 at
// 64 / 128 / 256): at most 0.0022 per cycle, against a bound of 0.05.
// One make in one router's Step is 1.0.
//
// The load is 0.4, not the 0.6 BenchmarkStep times, because the count
// has to mean the same thing at every point and 0.6 is past baseline's
// saturation (0.59), where the source queues grow without bound (2,268 /
// 5,199 / 10,372 allocations at radix 64 / 128 / 256, none of them in
// Step). At 0.6 lowradix makes 30 / 46 and dynvc 46 / 90 / 130.
func TestStepSteadyStateAllocs(t *testing.T) {
	for _, cfg := range stepPoints() {
		if got := mallocsPerCycle(t, stepOptions(cfg, 0.4, gateCycles)); got > gateBound {
			t.Errorf("%s radix %d: %.4f heap allocations per steady-state cycle, want <= %v", cfg.Arch, cfg.Radix, got, gateBound)
		}
	}
}

// TestIdleSteadyStateAllocs holds a nearly idle run to the same gate in
// both injection modes: at load 0.001 (0.06 injections per cycle across
// a radix-64 router) the driver jumps from one source's next generation
// cycle to the next, read off drive.Bank's one dense schedule whether the
// sources draw per cycle or sample gaps. Measured over the 20,000 cycles:
// 12 allocations in either mode (latency samples and the free list
// reaching new high-water marks) — 0.0006 per cycle against the same
// 0.05.
func TestIdleSteadyStateAllocs(t *testing.T) {
	for _, mode := range []traffic.InjMode{traffic.InjPerCycle, traffic.InjGap} {
		o := stepOptions(highradix.RouterConfig{Arch: highradix.Hierarchical}, 0.001, gateCycles)
		o.Injection = mode
		if got := mallocsPerCycle(t, o); got > gateBound {
			t.Errorf("idle %s: %.4f heap allocations per cycle, want <= %v", mode, got, gateBound)
		}
	}
}

// Guard: every registered experiment and every step point is benchmarked
// above by construction (both benchmarks range over their registry), and
// the cheap analytic experiments run end to end through the facade. The
// simulation experiments are exercised by the experiments package's
// goldens.
func TestBenchRegistryCoverage(t *testing.T) {
	analytic := map[string]bool{"fig1": true, "fig2": true, "fig3": true, "fig15": true, "fig17d": true}
	for _, e := range experiments.Registry {
		if !analytic[e.Name] {
			continue
		}
		if _, err := highradix.Experiment(e.Name, highradix.QuickScale); err != nil {
			t.Fatalf("registry smoke failed for %s: %v", e.Name, err)
		}
	}
}
