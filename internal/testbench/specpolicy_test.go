package testbench

import (
	"testing"

	"highradix/internal/router"
)

// TestSpecPolicyOrdering pins Section 4.4's re-bidding claim: a
// speculative bid policy that rotates after failure saturates well
// above the naive fixed-VC policy (which wastes bandwidth hammering a
// busy VC), with the non-adaptive hash policy in between.
func TestSpecPolicyOrdering(t *testing.T) {
	thr := func(p router.SpecPolicy) float64 {
		o := quickOpts(router.Config{Arch: router.ArchBaseline, VA: router.CVA, SpecPolicy: p}, 1.0)
		o.PktLen = 4
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	rotate := thr(router.SpecRotate)
	hash := thr(router.SpecHash)
	fixed := thr(router.SpecFixed)
	if rotate < fixed+0.1 {
		t.Errorf("rotate %.3f not clearly above fixed %.3f", rotate, fixed)
	}
	if hash < fixed+0.05 {
		t.Errorf("hash %.3f not above fixed %.3f", hash, fixed)
	}
	if rotate < hash-0.05 {
		t.Errorf("rotate %.3f below hash %.3f", rotate, hash)
	}
}
