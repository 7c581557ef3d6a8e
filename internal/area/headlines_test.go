package area_test

import (
	"math"
	"testing"

	"highradix/internal/area"
	"highradix/internal/experiments"
	"highradix/internal/router"
)

// The paper's area claims, held on the storage the routers build: the
// model prices flits, so each check builds the architectures it compares
// and prices them with experiments.Price.

func price(cfg router.Config) experiments.Area {
	return experiments.Price(area.Default(), cfg)
}

// intermediateBits returns the storage a router holds beyond the input
// buffers of the baseline crossbar of the same radix.
func intermediateBits(cfg router.Config) float64 {
	return price(cfg).Bits - price(router.Config{Arch: router.ArchBaseline, Radix: cfg.Radix}).Bits
}

func TestFullyBufferedQuadratic(t *testing.T) {
	// Doubling the radix roughly quadruples crosspoint storage.
	r := price(router.Config{Arch: router.ArchBuffered, Radix: 128}).Bits /
		price(router.Config{Arch: router.ArchBuffered, Radix: 64}).Bits
	if r < 3.8 || r > 4.2 {
		t.Fatalf("radix doubling scaled storage by %v, want ~4", r)
	}
}

func TestHierarchicalFactor(t *testing.T) {
	// Section 6: ignoring the shared input buffers, hierarchical storage
	// is 2/p of the fully buffered crosspoint storage at equal depths.
	for _, k := range []int{16, 64, 256} {
		fbXp := intermediateBits(router.Config{Arch: router.ArchBuffered, Radix: k})
		for _, p := range []int{4, 8, 16, 32} {
			if k%p != 0 {
				continue
			}
			hXp := intermediateBits(router.Config{Arch: router.ArchHierarchical, Radix: k, SubSize: p})
			if got := hXp / fbXp; math.Abs(got-2.0/float64(p)) > 1e-9 {
				t.Errorf("k=%d p=%d: hierarchical/fully-buffered crosspoint storage = %v, want %v", k, p, got, 2.0/float64(p))
			}
		}
	}
}

func TestPaperHeadlines(t *testing.T) {
	m := area.Default()
	// Figure 15: storage overtakes wire area near radix 50.
	if c := experiments.Crossover(m); c < 40 || c > 62 {
		t.Fatalf("storage/wire crossover at radix %d, paper reports ~50", c)
	}
	fb := price(router.Config{Arch: router.ArchBuffered, Radix: 64})
	h := price(router.Config{Arch: router.ArchHierarchical, Radix: 64, SubSize: 8})
	// Headline: ~40% total-area saving at k=64, p=8.
	if s := 1 - h.TotalMm2()/fb.TotalMm2(); s < 0.30 || s > 0.50 {
		t.Fatalf("total-area saving %v, paper reports 0.40", s)
	}
	// Storage-bit saving is structurally 1 - 2/p modulo input buffers.
	if s := 1 - h.Bits/fb.Bits; s < 0.65 || s > 0.80 {
		t.Fatalf("bit saving %v", s)
	}
}

func TestEqualBufferDepth(t *testing.T) {
	// Paper footnote: each hierarchical buffer gets p/2 times the
	// storage of a crosspoint buffer; p=8 -> 16 entries. With that depth
	// total hierarchical storage equals fully buffered crosspoint storage.
	for _, k := range []int{16, 64, 256} {
		fb := router.Config{Arch: router.ArchBuffered, Radix: k}
		r, err := router.New(fb)
		if err != nil {
			t.Fatal(err)
		}
		d := r.Config().XpointBufDepth * 8 / 2
		if d != 16 {
			t.Fatalf("equal-storage depth %d, want 16", d)
		}
		fbXp := intermediateBits(fb)
		hXp := intermediateBits(router.Config{Arch: router.ArchHierarchical, Radix: k, SubSize: 8, XpointBufDepth: d})
		if math.Abs(hXp/fbXp-1) > 1e-9 {
			t.Errorf("k=%d: equal-storage depths differ: %v vs %v", k, hXp, fbXp)
		}
	}
}
