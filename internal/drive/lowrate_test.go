package drive_test

import (
	"fmt"
	"testing"

	"highradix/internal/drive"
	"highradix/internal/network"
	"highradix/internal/router"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// TestNoLoadRunsEnd: sources that never generate, or as good as never,
// neither stall a run nor draw without bound. Behind both front ends
// (the single router in both injection modes), jumping and dense, a run
// at load 0 and at 1e-9 ends at the edge of its window, and no source has
// drawn more than once per simulated cycle plus one run-ahead past the
// end.
func TestNoLoadRunsEnd(t *testing.T) {
	const warmup, measure = 200, 3000
	topo, err := network.NewClos(network.Config{Radix: 4, Digits: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []float64{0, 1e-9} {
		for _, inj := range []traffic.InjMode{traffic.InjPerCycle, traffic.InjGap} {
			for _, dense := range []bool{false, true} {
				fronts := map[string]func() (cycles int64, err error){
					"testbench": func() (int64, error) {
						res, err := testbench.Run(testbench.Options{
							Router: router.Config{Arch: router.ArchBaseline, Radix: 8, VCs: 2}, Load: load,
							WarmupCycles: warmup, MeasureCycles: measure, Seed: 3, Injection: inj, NoFastForward: dense,
						})
						return res.Cycles, err
					},
				}
				if inj == traffic.InjPerCycle { // the only discipline a network run draws by
					fronts["network"] = func() (int64, error) {
						res, err := network.Run(network.Options{
							Topo: topo, Load: load,
							WarmupCycles: warmup, MeasureCycles: measure, Seed: 3, NoFastForward: dense,
						})
						return res.Cycles, err
					}
				}
				for front, run := range fronts {
					t.Run(fmt.Sprintf("%s/load=%g/%s/dense=%t", front, load, inj, dense), func(t *testing.T) {
						banks := drive.WatchBanks(t)
						cycles, err := run()
						if err != nil {
							t.Fatal(err)
						}
						if cycles != warmup+measure+1 {
							t.Errorf("ran %d cycles: an idle run ends with its %d-cycle window", cycles, warmup+measure)
						}
						if len(*banks) != 1 {
							t.Fatalf("%d banks built", len(*banks))
						}
						b := (*banks)[0]
						for _, id := range b.Owned() {
							if most := int(cycles) + drive.Horizon(); b.Draws(id, most) < 0 {
								t.Errorf("source %d took more than %d draws in %d cycles", id, most, cycles)
							}
						}
					})
				}
			}
		}
	}
}
