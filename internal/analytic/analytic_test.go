package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPaperAspectRatios pins the paper's stated numbers: aspect ratio
// 554 and optimal radix 40 for 2003 technology; 2978 and 127 for 2010.
func TestPaperAspectRatios(t *testing.T) {
	if a := Tech2003.AspectRatio(); math.Abs(a-554) > 20 {
		t.Errorf("2003 aspect ratio %v, paper says ~554", a)
	}
	if a := Tech2010.AspectRatio(); math.Abs(a-2978) > 20 {
		t.Errorf("2010 aspect ratio %v, paper says 2978", a)
	}
	if k := Tech2003.OptimalRadixFor(); math.Abs(k-40) > 2 {
		t.Errorf("2003 optimal radix %v, paper says 40", k)
	}
	if k := Tech2010.OptimalRadixFor(); math.Abs(k-127) > 2 {
		t.Errorf("2010 optimal radix %v, paper says 127", k)
	}
}

// TestOptimalRadixSolvesEquation property-checks the bisection: the
// returned k satisfies k*ln^2(k) = A.
func TestOptimalRadixSolvesEquation(t *testing.T) {
	err := quick.Check(func(x uint16) bool {
		a := 10 + float64(x%9990)
		k := OptimalRadix(a)
		l := math.Log(k)
		return math.Abs(k*l*l-a) < 1e-3*a
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestLatencyUShaped verifies the Figure 3(a) shape: latency decreases
// from very small radices, reaches a minimum at the optimal radix of
// Equation (3), and increases again as serialization dominates. It holds
// for the paper's design points and for random technologies: bandwidth
// 1e9 to 1e15 b/s (in-package optics included), tr 0.1 to 100 ns, N 64
// to 1e6 and L 32 to 1024 bits, with aspect ratio A >= 10 as in
// TestOptimalRadixSolvesEquation.
func TestLatencyUShaped(t *testing.T) {
	ushaped := func(tech Technology) bool {
		kOpt := tech.OptimalRadixFor()
		lOpt := tech.Latency(kOpt)
		if tech.Latency(kOpt/4) <= lOpt || tech.Latency(kOpt*4) <= lOpt {
			t.Errorf("%+v: latency at k_opt/4 or 4*k_opt not above the minimum at k_opt = %v", tech, kOpt)
			return false
		}
		// The minimum of a fine sweep sits at kOpt within one step.
		const step = 1.01
		kMin := 2.0
		for k := 2.0; k < 16*kOpt; k *= step {
			if tech.Latency(k) < tech.Latency(kMin) {
				kMin = k
			}
		}
		if kMin < kOpt/step || kMin > kOpt*step {
			t.Errorf("%+v: sweep minimum at k=%v, Equation (3) gives k_opt=%v", tech, kMin, kOpt)
			return false
		}
		return true
	}
	for _, tech := range []Technology{Tech2003, Tech2010} {
		ushaped(tech)
	}
	// span maps x in [0, 65535] log-uniformly onto [lo, hi].
	span := func(x uint16, lo, hi float64) float64 {
		return lo * math.Pow(hi/lo, float64(x)/math.MaxUint16)
	}
	checked := 0
	err := quick.Check(func(b, tr, n, l uint16) bool {
		tech := Technology{Name: "random", BandwidthBps: span(b, 1e9, 1e15), RouterDelay: span(tr, 0.1e-9, 100e-9),
			Nodes: span(n, 64, 1e6), PacketBits: span(l, 32, 1024)}
		if tech.AspectRatio() < 10 {
			return true
		}
		checked++
		return ushaped(tech)
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 100 {
		t.Fatalf("vacuous: only %d of 400 random technologies have A >= 10", checked)
	}
}

// TestCostMonotone verifies Figure 3(b): cost decreases with radix.
func TestCostMonotone(t *testing.T) {
	for _, tech := range []Technology{Tech2003, Tech2010} {
		prev := math.Inf(1)
		for k := 4.0; k <= 256; k *= 2 {
			c := tech.Cost(k)
			if c >= prev {
				t.Errorf("%s: cost not decreasing at k=%v", tech.Name, k)
			}
			prev = c
		}
	}
	// 2010 network costs more than 2003 at the same radix (more nodes).
	if Tech2010.Cost(64) <= Tech2003.Cost(64) {
		t.Error("2010 cost not above 2003 cost")
	}
}

// TestTrendFitRecoversSyntheticSlope checks the Figure 1 fit machinery
// against an exact exponential.
func TestTrendFitRecoversSyntheticSlope(t *testing.T) {
	var pts []RouterDataPoint
	for year := 1985; year <= 2005; year += 2 {
		bw := 0.5 * math.Pow(10, 0.2*float64(year-1985))
		pts = append(pts, RouterDataPoint{Year: year, GbPerSec: bw, HighWater: true})
	}
	fit := FitTrend(pts, true)
	if math.Abs(fit.DecadesPerYear-0.2) > 1e-9 {
		t.Fatalf("slope %v, want 0.2", fit.DecadesPerYear)
	}
	if math.Abs(fit.DecadeYears()-5) > 1e-6 {
		t.Fatalf("10x years %v, want 5", fit.DecadeYears())
	}
	if math.Abs(fit.Eval(1985)-0.5) > 1e-9 {
		t.Fatalf("intercept %v, want 0.5", fit.Eval(1985))
	}
}

// TestHistoricalTrend verifies the paper's observation on the real
// dataset: an order of magnitude roughly every five years.
func TestHistoricalTrend(t *testing.T) {
	fit := FitTrend(RouterHistory, true)
	if y := fit.DecadeYears(); y < 4 || y > 8 {
		t.Fatalf("years per 10x = %v, paper observes ~5", y)
	}
	all := FitTrend(RouterHistory, false)
	if y := all.DecadeYears(); y < 4 || y > 9 {
		t.Fatalf("all-router years per 10x = %v", y)
	}
}

func TestFitTrendDegenerate(t *testing.T) {
	if fit := FitTrend(nil, false); fit.BaseGb != 0 {
		t.Fatal("empty fit should be zero")
	}
}

// TestCycles pins Equation (2)'s terms in cycles at the radices of a
// 4096-node Clos: tr grows by one cycle per doubling of k, and the
// channel is never faster than one flit per cycle (k = 4 and 8).
func TestCycles(t *testing.T) {
	for _, c := range []struct{ k, tr, ser int }{{4, 7, 1}, {8, 8, 1}, {16, 9, 1}, {32, 10, 2}, {64, 11, 4}, {128, 12, 8}} {
		if tr, ser := Cycles(c.k); tr != c.tr || ser != c.ser {
			t.Errorf("Cycles(%d) = (%d, %d), want (%d, %d)", c.k, tr, ser, c.tr, c.ser)
		}
	}
}
