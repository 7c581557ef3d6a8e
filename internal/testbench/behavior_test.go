package testbench

import (
	"testing"

	"highradix/internal/router"
	"highradix/internal/traffic"
)

// These tests pin the microarchitectural mechanisms the paper's
// evaluation is built on, at reduced scale. Each corresponds to a
// sentence of the paper, cited in the comment.

// "Adding buffering at the crosspoints ... decouples the input and
// output virtual channel and switch allocation" — so shrinking the
// crosspoint buffer to one flit must visibly hurt throughput (Figure
// 14(a)'s lowest curve), while four flits recover it.
func TestCrosspointBufferSizeMatters(t *testing.T) {
	thr := func(depth int) float64 {
		o := quickOpts(router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2, XpointBufDepth: depth}, 1.0)
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	one := thr(1)
	four := thr(4)
	if four < one {
		t.Fatalf("deeper crosspoint buffers reduced throughput: %v vs %v", four, one)
	}
	if four < 0.85 {
		t.Fatalf("4-flit crosspoint buffers saturate at %.3f, paper says near 100%%", four)
	}
}

// "With long packets, however, larger crosspoint buffers are required
// to permit enough packets to be stored in the crosspoint to avoid
// head-of-line blocking in the input buffers" (Figure 14(b)).
func TestLongPacketsNeedDeepBuffers(t *testing.T) {
	thr := func(depth int) float64 {
		o := quickOpts(router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2, XpointBufDepth: depth}, 1.0)
		o.PktLen = 10
		o.WarmupCycles, o.MeasureCycles = 1500, 3000
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	small := thr(2)
	big := thr(32)
	if big < small+0.05 {
		t.Fatalf("long packets: 32-flit buffers (%.3f) did not beat 2-flit (%.3f)", big, small)
	}
}

// "each subswitch sees only a fraction of the load" under uniform
// random traffic, so the hierarchical crossbar matches the fully
// buffered one (Figure 17(a)); the worst-case pattern concentrates all
// traffic into one subswitch per row group and costs throughput
// (Figure 17(b)).
func TestHierarchicalWorstCaseDegrades(t *testing.T) {
	cfg := router.Config{Arch: router.ArchHierarchical, Radix: 16, VCs: 2, SubSize: 4}
	thr := func(p traffic.Pattern) float64 {
		o := quickOpts(cfg, 1.0)
		o.Pattern = p
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	uniform := thr(traffic.NewUniform(16))
	worst := thr(traffic.NewWorstCaseHierarchical(16, 4))
	if worst > uniform-0.1 {
		t.Fatalf("worst-case pattern (%.3f) did not degrade hierarchical vs uniform (%.3f)", worst, uniform)
	}
	// But still functional — the paper reports ~20%+ above the baseline.
	if worst < 0.3 {
		t.Fatalf("worst-case throughput %.3f collapsed entirely", worst)
	}
}

// "OVA speculates deeper in the pipeline than CVA and ... compromises
// performance" (Section 4.2) — CVA saturates at or above OVA.
func TestCVABeatsOVA(t *testing.T) {
	thr := func(va router.VAScheme) float64 {
		o := quickOpts(router.Config{Arch: router.ArchBaseline, Radix: 16, VCs: 2, VA: va}, 1.0)
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cva := thr(router.CVA)
	ova := thr(router.OVA)
	if cva < ova-0.02 {
		t.Fatalf("CVA %.3f below OVA %.3f", cva, ova)
	}
}

// "Hotspot traffic limits the throughput ... the oversubscribed outputs
// are saturated" (Section 7): with h of k outputs receiving 50% of all
// traffic, accepted throughput is capped well below 1 for every
// architecture, including the fully buffered crossbar.
func TestHotspotCapsEveryArchitecture(t *testing.T) {
	for _, cfg := range []router.Config{
		{Arch: router.ArchBuffered, Radix: 16, VCs: 2},
		{Arch: router.ArchHierarchical, Radix: 16, VCs: 2, SubSize: 4},
	} {
		o := quickOpts(cfg, 1.0)
		o.Pattern = traffic.NewHotspot(16, 2)
		thr, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		// Hot outputs take 50%+50%*2/16 = 56.25% of traffic across 2 of
		// 16 ports: the cap is 2/16/0.5625 ~ 0.22 of capacity plus the
		// background traffic the cold ports still deliver.
		if thr > 0.7 {
			t.Fatalf("%s: hotspot throughput %.3f not capped", cfg.Arch, thr)
		}
	}
}

// "The hierarchical crossbar ... is better able to handle bursts of
// traffic because it has two stages of buffering" (Section 7 / Figure
// 18(c)): on bursty traffic both buffered designs clearly beat the
// unbuffered baseline.
func TestBurstyFavorsBufferedDesigns(t *testing.T) {
	thr := func(cfg router.Config) float64 {
		o := quickOpts(cfg, 1.0)
		o.Bursty = true
		o.WarmupCycles, o.MeasureCycles = 1500, 3000
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	baselineThr := thr(router.Config{Arch: router.ArchBaseline, Radix: 16, VCs: 2})
	hierThr := thr(router.Config{Arch: router.ArchHierarchical, Radix: 16, VCs: 2, SubSize: 4})
	bufThr := thr(router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2})
	if hierThr < baselineThr+0.1 || bufThr < baselineThr+0.1 {
		t.Fatalf("bursty: hier %.3f / buffered %.3f not clearly above baseline %.3f",
			hierThr, bufThr, baselineThr)
	}
}

// The shared credit-return bus "has minimal difference" against ideal
// credit return (Section 5.2).
func TestCreditBusNearIdeal(t *testing.T) {
	thr := func(ideal bool) float64 {
		o := quickOpts(router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2, IdealCredit: ideal}, 1.0)
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	shared := thr(false)
	ideal := thr(true)
	if ideal-shared > 0.05 {
		t.Fatalf("shared credit bus costs %.3f throughput (shared %.3f, ideal %.3f); paper says minimal",
			ideal-shared, shared, ideal)
	}
}

// Dynamic VC sizing lets a congested VC borrow the buffer space idle
// ones leave, on the low-radix router's own allocator. Under uniform
// single-flit traffic no VC fills and the two routers grant alike;
// 10-flit packets fill VCs, and the shared pool then carries more
// (radix 64, load 1.0: 0.687 against 0.645 at seed 1, and 2.5-4.2 pp
// more on seeds 1-3).
func TestDynVCBeatsLowRadixOnLongPackets(t *testing.T) {
	thr := func(arch router.Arch) float64 {
		o := quickOpts(router.Config{Arch: arch, Radix: 64}, 1.0)
		o.PktLen = 10
		o.WarmupCycles, o.MeasureCycles = 800, 1600
		v, err := SaturationThroughput(o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	low, dyn := thr(router.ArchLowRadix), thr(router.ArchDynVC)
	t.Logf("lowradix %.4f dynvc %.4f", low, dyn)
	if dyn < low+0.01 {
		t.Fatalf("10-flit packets: dynvc %.4f not above lowradix %.4f", dyn, low)
	}
}
