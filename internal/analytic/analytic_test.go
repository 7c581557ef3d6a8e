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
// from very small radices, reaches a minimum near the optimal radix,
// and increases again as serialization dominates.
func TestLatencyUShaped(t *testing.T) {
	for _, tech := range []Technology{Tech2003, Tech2010} {
		kOpt := tech.OptimalRadixFor()
		lOpt := tech.Latency(kOpt)
		if tech.Latency(kOpt/4) <= lOpt {
			t.Errorf("%s: latency at k_opt/4 not above minimum", tech.Name)
		}
		if tech.Latency(kOpt*4) <= lOpt {
			t.Errorf("%s: latency at 4*k_opt not above minimum", tech.Name)
		}
		// Minimum is genuinely near kOpt on a fine sweep.
		for k := 4.0; k < 512; k *= 1.2 {
			if tech.Latency(k) < lOpt-1e-12 {
				t.Errorf("%s: latency at k=%v below latency at k_opt", tech.Name, k)
			}
		}
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
