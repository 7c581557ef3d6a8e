package router_test

import (
	"testing"

	"highradix/internal/router"
)

// TestNewAllocsRadix256 is the construction gate of the grid
// architectures: router.New at radix 256, v=4 must stay under 20,000
// heap allocations. With a heap object (or two) per crosspoint or
// subswitch queue the count was 80,172 for sharedxp, 194,461 for
// hierarchical and 275,751 for buffered, so a per-queue object cannot
// come back unnoticed.
func TestNewAllocsRadix256(t *testing.T) {
	for _, a := range []router.Arch{router.ArchBuffered, router.ArchSharedXpoint, router.ArchHierarchical} {
		cfg := router.Config{Arch: a, Radix: 256, VCs: 4}
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := router.New(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", a, allocs)
		if allocs >= 20000 {
			t.Errorf("router.New(%s, radix 256, v=4) made %.0f heap allocations, want < 20000", a, allocs)
		}
	}
}
