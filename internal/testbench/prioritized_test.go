package testbench

import (
	"testing"

	"highradix/internal/router"
)

// TestPrioritizedSpeculationFig11 pins the Figure 11 result: with a
// single virtual channel and 10-flit packets, duplicating the output
// switch arbiters to prioritize nonspeculative requests buys measurable
// throughput; with four VCs the advantage largely disappears because a
// speculative request will likely find an available output VC anyway.
func TestPrioritizedSpeculationFig11(t *testing.T) {
	thr := func(vcs int, prio bool) float64 {
		o := Options{
			Router:        router.Config{Arch: router.ArchBaseline, VA: router.CVA, VCs: vcs, Prioritized: prio},
			Load:          1.0,
			PktLen:        10,
			WarmupCycles:  1500,
			MeasureCycles: 3500,
			Seed:          1,
		}
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	oneVCPlain := thr(1, false)
	oneVCPrio := thr(1, true)
	fourVCPlain := thr(4, false)
	fourVCPrio := thr(4, true)
	if oneVCPrio < oneVCPlain+0.02 {
		t.Errorf("1 VC: prioritization gained only %.3f -> %.3f; paper shows ~10%%", oneVCPlain, oneVCPrio)
	}
	gain4 := fourVCPrio - fourVCPlain
	if gain4 > 0.05 || gain4 < -0.05 {
		t.Errorf("4 VC: prioritization moved throughput by %+.3f; paper shows little effect", gain4)
	}
}
