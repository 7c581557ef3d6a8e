package testbench

import (
	"fmt"
	"testing"

	"highradix/internal/router"
	"highradix/internal/traffic"
)

// BenchmarkRunLowLoad is the A/B the event-driven core is judged by:
// one full Run (warmup+measure+drain) at a low offered load, per-cycle
// versus gap-sampled injection. Each op is a complete simulation, so
// the ratio of the two modes' ns/op is the end-to-end speedup at that
// load; CHANGES.md records the table, under "Event-driven injection".
// Seeds advance per iteration so neither mode benefits from a lucky
// realization.
func BenchmarkRunLowLoad(b *testing.B) {
	for _, load := range []float64{0.05, 0.2} {
		for _, mode := range []traffic.InjMode{traffic.InjPerCycle, traffic.InjGap} {
			b.Run(fmt.Sprintf("load=%v/%s", load, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, err := Run(Options{
						Router:        router.Config{Arch: router.ArchHierarchical, Radix: 64},
						Load:          load,
						WarmupCycles:  3000,
						MeasureCycles: 8000,
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
