package network

import (
	"fmt"
	"testing"

	"highradix/internal/traffic"
)

// BenchmarkNetRunLowLoad mirrors testbench.BenchmarkRunLowLoad at
// network scale: one full Clos run per op at a low offered load,
// per-cycle versus gap-sampled terminal sources. The 0.05 point is the
// zero-load-latency configuration Fig19 runs; EXPERIMENTS.md records
// the A/B table.
func BenchmarkNetRunLowLoad(b *testing.B) {
	for _, load := range []float64{0.05, 0.2} {
		for _, mode := range []traffic.InjMode{traffic.InjPerCycle, traffic.InjGap} {
			b.Run(fmt.Sprintf("load=%v/%s", load, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, err := Run(Options{
						Net:           Config{Radix: 16, Digits: 2},
						Load:          load,
						WarmupCycles:  600,
						MeasureCycles: 1200,
						Seed:          uint64(i) + 1,
						Injection:     mode,
					})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
