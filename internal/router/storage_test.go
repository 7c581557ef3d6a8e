package router_test

import (
	"testing"

	"highradix/internal/router"
)

// The storage formulas the area model once stated by hand, in flits, kept
// here as the reference the built routers must match: input buffers
// alone (baseline), plus v FIFOs of XpointBufDepth at each of the k^2
// crosspoints (fully buffered), or plus (k/p)^2 subswitches of p buffered
// inputs and p buffered outputs per VC (hierarchical).
func baselineFlits(c router.Config) int { return c.Radix * c.VCs * c.InputBufDepth }

func fullyBufferedFlits(c router.Config) int {
	return c.Radix*c.Radix*c.VCs*c.XpointBufDepth + baselineFlits(c)
}

func hierarchicalFlits(c router.Config, depth int) int {
	g := c.Radix / c.SubSize
	return g*g*2*c.SubSize*c.VCs*depth + baselineFlits(c)
}

func built(t *testing.T, cfg router.Config) (router.Config, int) {
	t.Helper()
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r.Config(), r.Storage()
}

// TestStorage holds every registered router's Storage, the sum of the
// FIFO banks it built, to the storage its architecture is specified to
// hold, at the paper's radix and either side of it.
func TestStorage(t *testing.T) {
	for _, k := range []int{16, 64, 256} {
		for _, a := range router.Registered() {
			cfg, got := built(t, router.Config{Arch: a, Radix: k})
			var want int
			switch a {
			case router.ArchLowRadix, router.ArchBaseline:
				want = baselineFlits(cfg)
			case router.ArchBuffered:
				want = fullyBufferedFlits(cfg)
			case router.ArchSharedXpoint:
				// One FIFO per crosspoint instead of one per VC: exactly
				// 1/v of the fully buffered crossbar's crosspoint storage.
				want = (fullyBufferedFlits(cfg)-baselineFlits(cfg))/cfg.VCs + baselineFlits(cfg)
			case router.ArchHierarchical:
				want = hierarchicalFlits(cfg, cfg.XpointBufDepth)
			case router.ArchVOQ:
				want = k*k*cfg.XpointBufDepth + baselineFlits(cfg)
			case router.ArchDynVC:
				// The pool, not the v-times-deeper queues carved from it.
				want = baselineFlits(cfg)
			default:
				t.Fatalf("%v: no reference storage; state the architecture's buffers here", a)
			}
			if got != want {
				t.Errorf("%v k=%d: Storage %d flits, want %d", a, k, got, want)
			}
		}
		for _, p := range []int{4, 8, 16, 32} {
			if k%p != 0 {
				continue
			}
			cfg, got := built(t, router.Config{Arch: router.ArchHierarchical, Radix: k, SubSize: p})
			if want := hierarchicalFlits(cfg, cfg.XpointBufDepth); got != want {
				t.Errorf("hierarchical k=%d p=%d: Storage %d flits, want %d", k, p, got, want)
			}
		}
	}
}
