package router_test

import (
	"testing"
	"testing/quick"

	"highradix/internal/router"
)

// TestRandomConfigConservation property-tests the invariant battery
// over randomly drawn configurations: any valid configuration of any
// architecture must conserve flits, deliver in order and drain.
func TestRandomConfigConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	archs := router.Registered()
	radices := []int{4, 8, 16}
	subs := map[int][]int{4: {2, 4}, 8: {2, 4}, 16: {4, 8}}
	trial := 0
	err := quick.Check(func(a, r, v, d, seedSel uint8) bool {
		trial++
		cfg := router.Config{
			Arch:           archs[int(a)%len(archs)],
			Radix:          radices[int(r)%len(radices)],
			VCs:            1 + int(v)%3,
			InputBufDepth:  2 + int(d)%6,
			XpointBufDepth: 1 + int(d)%3,
			LocalGroup:     4,
		}
		if cfg.Arch == router.ArchHierarchical {
			ss := subs[cfg.Radix]
			cfg.SubSize = ss[int(d)%len(ss)]
		}
		if cfg.Arch == router.ArchBaseline {
			cfg.VA = router.VAScheme(int(seedSel) % 2)
			cfg.Prioritized = seedSel%3 == 0
			cfg.SpecPolicy = router.SpecPolicy(int(seedSel) % 3)
		}
		// drive fails the test itself on any invariant violation; the
		// quick.Check predicate only reports completion.
		drive(t, cfg, 40, 1+int(seedSel)%3, uint64(7000+trial))
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}
