package network

import (
	"fmt"
	"testing"
)

// BenchmarkIdleNetworkCycle measures one cycle of an empty Clos
// network: the NextWake test a fast-forwarding driver pays, and the
// full Step a dense one pays. With the active-router bitsets, the empty
// Step visits no router at all — its cost is a handful of empty bitset
// words per stage — so both numbers stay flat as the network grows from
// 256 routers (k16 d2) to 4096 terminals' worth of radix-64 hardware,
// demonstrating O(active) rather than O(routers) idle advance.
func BenchmarkIdleNetworkCycle(b *testing.B) {
	for _, cfg := range []Config{
		{Radix: 16, Digits: 2},
		{Radix: 64, Digits: 2},
	} {
		cfg := cfg
		nw, err := New(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nextwake/k%dd%d", cfg.Radix, cfg.Digits), func(b *testing.B) {
			b.ReportAllocs()
			sink := int64(0)
			for n := 0; n < b.N; n++ {
				sink += nw.NextWake(int64(n))
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("emptystep/k%dd%d", cfg.Radix, cfg.Digits), func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				nw.Step(int64(n))
			}
		})
	}
}

// loadedNetwork builds a Clos network and its source bank at the given
// load and steps it past warmup, returning the steady-state cycle body
// (generate, inject, step, recycle) and the next cycle to run.
func loadedNetwork(tb testing.TB, cfg Config, load float64, warmup int64) (cycle func(now int64), now int64) {
	o := Options{Net: cfg, Load: load, Seed: 1}.WithDefaults()
	topo, err := o.Topology()
	if err != nil {
		tb.Fatal(err)
	}
	nw := NewNetwork(topo, o.RouteSeed())
	src := NewSources(topo, o.SourceOpts(topo), 0, topo.Routers())
	cycle = func(now int64) {
		src.Generate(now, false)
		src.InjectAll(now, nw, nil)
		nw.Step(now)
		for _, f := range nw.Ejected() {
			src.Recycle(f)
		}
	}
	for ; now < warmup; now++ {
		cycle(now)
	}
	return cycle, now
}

// BenchmarkLoadedNetworkStep measures one steady-state cycle of the
// two Figure 19 networks at half load: the serial driver's loop body
// without its statistics. Construction and warmup are excluded, so
// allocs/op is the hot path's own.
func BenchmarkLoadedNetworkStep(b *testing.B) {
	for _, cfg := range []Config{
		{Radix: 64, Digits: 2},
		{Radix: 16, Digits: 3},
	} {
		b.Run(fmt.Sprintf("k%dd%d", cfg.Radix, cfg.Digits), func(b *testing.B) {
			cycle, now := loadedNetwork(b, cfg, 0.5, 1000)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				cycle(now + int64(n))
			}
		})
	}
}

// TestNetworkStepSteadyStateAllocs gates the per-cycle allocation count
// of a warmed, loaded network: the calendars, scratch lists, source
// queues and queue-chunk pool have reached their steady capacity, so
// what remains is slice growth at new high-water marks — a fraction of
// an allocation per cycle, where a per-cycle closure or sort.Slice
// swapper would cost whole ones. At load 0.9 queues take and return
// pool chunks every cycle; the churn must reuse them.
func TestNetworkStepSteadyStateAllocs(t *testing.T) {
	for _, load := range []float64{0.5, 0.9} {
		cycle, now := loadedNetwork(t, Config{Radix: 16, Digits: 2}, load, 3000)
		avg := testing.AllocsPerRun(500, func() {
			cycle(now)
			now++
		})
		if avg > 0.5 {
			t.Errorf("load %v: steady-state cycle allocates %.2f times, want <= 0.5", load, avg)
		}
	}
}

// BenchmarkNetRunLowLoad mirrors testbench.BenchmarkRunLowLoad at
// network scale: one full Clos run per op at a low offered load. The
// 0.05 point is the run the network figures (experiments' netFig)
// take their zero-load latency and hop count from.
func BenchmarkNetRunLowLoad(b *testing.B) {
	for _, load := range []float64{0.05, 0.2} {
		b.Run(fmt.Sprintf("load=%v", load), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := Run(Options{
					Net:           Config{Radix: 16, Digits: 2},
					Load:          load,
					WarmupCycles:  600,
					MeasureCycles: 1200,
					Seed:          uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
