package testbench

import (
	"testing"

	"highradix/internal/router"
)

// TestAllocItersRecoverHoL: the matching loss of single-iteration
// separable allocation shrinks as iterations are added.
func TestAllocItersRecoverHoL(t *testing.T) {
	thr := func(iters int) float64 {
		o := quickOpts(router.Config{Arch: router.ArchLowRadix, Radix: 16, AllocIters: iters}, 1.0)
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	one := thr(1)
	four := thr(4)
	if four < one+0.05 {
		t.Errorf("4 iterations (%.3f) did not improve on 1 (%.3f)", four, one)
	}
	// Iterations close the matching loss but not the slot-phase loss
	// (ports become free on different cycles of the 4-cycle traversal),
	// so the ceiling sits below 1.0.
	if four < 0.75 {
		t.Errorf("4-iteration allocator saturates at %.3f", four)
	}
	t.Logf("iters=1: %.3f, iters=4: %.3f", one, four)
}
