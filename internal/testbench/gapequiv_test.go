package testbench

import (
	"math"
	"testing"

	"highradix/internal/router"
	"highradix/internal/traffic"
)

// Gap-sampled injection has its own twin discipline: a gap run with
// fast-forwarding and one forced dense (NoFastForward, same Injection)
// must be byte-identical — same event stream, same Result, same
// checker verdict. This is the executable form of the source bank's
// determinism contract (sources generating in the same cycle are
// visited in ascending order, called every cycle or only at the cycles
// NextGen names) plus the jump-legality argument in DESIGN.md. Equivalence to per-cycle injection is distributional,
// not byte-level (the RNG draw counts differ by construction), and is
// pinned separately: chi-square tests on the samplers in
// internal/traffic and the throughput cross-check below.

func TestGapFastForwardTwin(t *testing.T) {
	archs := []router.Arch{
		router.ArchLowRadix, router.ArchBaseline, router.ArchBuffered,
		router.ArchSharedXpoint, router.ArchHierarchical,
	}
	for _, a := range archs {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			// Low load maximizes the idle stretches the event-driven run
			// jumps across, which is where divergence would hide.
			o := quickOpts(router.Config{Arch: a, Radix: 16, VCs: 2}, 0.1)
			o.Injection = traffic.InjGap
			runTwins(t, o)
		})
		t.Run(a.String()+"/checked", func(t *testing.T) {
			o := quickOpts(router.Config{Arch: a, Radix: 16, VCs: 2}, 0.5)
			o.Injection = traffic.InjGap
			o.Check = true
			runTwins(t, o)
		})
		t.Run(a.String()+"/bursty", func(t *testing.T) {
			o := quickOpts(router.Config{Arch: a, Radix: 8, VCs: 2}, 0.3)
			o.Injection = traffic.InjGap
			o.Bursty = true
			o.Check = true
			runTwins(t, o)
		})
	}
}

// TestGapMatchesPerCycleDistribution cross-checks the two injection
// modes end to end: at the same offered load they must accept the same
// throughput and report latencies in the same regime. Tolerances are
// statistical (different RNG streams), sized ~4 sigma for the sample.
func TestGapMatchesPerCycleDistribution(t *testing.T) {
	for _, load := range []float64{0.1, 0.4} {
		o := quickOpts(router.Config{Arch: router.ArchHierarchical, Radix: 32, VCs: 2}, load)
		o.MeasureCycles = 4000
		pc, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		o.Injection = traffic.InjGap
		g, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if pc.Saturated || g.Saturated {
			t.Fatalf("load %v: unexpected saturation (percycle %v, gap %v)",
				load, pc.Saturated, g.Saturated)
		}
		if d := math.Abs(pc.Throughput - g.Throughput); d > 0.02 {
			t.Errorf("load %v: throughput percycle %.4f vs gap %.4f",
				load, pc.Throughput, g.Throughput)
		}
		if d := math.Abs(pc.AvgLatency - g.AvgLatency); d > 0.15*pc.AvgLatency+1 {
			t.Errorf("load %v: latency percycle %.2f vs gap %.2f",
				load, pc.AvgLatency, g.AvgLatency)
		}
	}
}

// FuzzGapEquivalence explores (arch, load, bursty, seed) space for gap
// twin divergence the table-driven cases miss.
func FuzzGapEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(20), false, uint64(1))
	f.Add(uint8(2), uint8(200), true, uint64(42))
	f.Add(uint8(4), uint8(80), false, uint64(7))
	f.Fuzz(func(t *testing.T, archB, loadB uint8, bursty bool, seed uint64) {
		archs := []router.Arch{
			router.ArchLowRadix, router.ArchBaseline, router.ArchBuffered,
			router.ArchSharedXpoint, router.ArchHierarchical,
		}
		o := Options{
			Router:        router.Config{Arch: archs[int(archB)%len(archs)], Radix: 8, VCs: 2},
			Load:          float64(loadB) / 255,
			Bursty:        bursty,
			WarmupCycles:  200,
			MeasureCycles: 400,
			Seed:          seed,
			Check:         true,
			Injection:     traffic.InjGap,
		}
		runTwins(t, o)
	})
}
