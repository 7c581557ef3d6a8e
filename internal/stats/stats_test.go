package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleMoments(t *testing.T) {
	s := NewSample(0)
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	// Unbiased variance of the classic dataset: sum sq dev = 32, /7.
	if got := s.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", got, 32.0/7)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Mean() != 0 || s.Variance() != 0 || s.Quantile(0.5) != 0 {
		t.Fatal("empty sample should report zeros")
	}
	if !math.IsInf(s.HalfWidth99(), 1) {
		t.Fatal("empty sample CI should be infinite")
	}
}

func TestQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 1: 100, 0.5: 50.5}
	for q, want := range cases {
		if got := s.Quantile(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile %v = %v, want %v", q, got, want)
		}
	}
	if p99 := s.Quantile(0.99); p99 < 98 || p99 > 100 {
		t.Errorf("p99 = %v", p99)
	}
}

// TestQuantileInterleavedWithAdd: Quantile keeps its sorted order across
// calls, and every Add — one growing the reservoir or one replacing a
// value in a full one — makes the next call see the new values.
func TestQuantileInterleavedWithAdd(t *testing.T) {
	s := NewSample(16)
	x := 0.5
	for i := 0; i < 400; i++ {
		x = math.Mod(x*3.7+0.13, 1)
		s.Add(float64(i%7) + x)
		ref := append([]float64(nil), s.values...)
		sort.Float64s(ref)
		for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
			pos := q * float64(len(ref)-1)
			lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
			want := ref[lo]*(1-(pos-float64(lo))) + ref[hi]*(pos-float64(lo))
			if got := s.Quantile(q); got != want {
				t.Fatalf("after %d adds: quantile %v = %v, want %v", i+1, q, got, want)
			}
		}
	}
	if s.n <= int64(len(s.values)) {
		t.Fatal("vacuous: the reservoir never replaced a value")
	}
}

func TestReservoirBoundsMemory(t *testing.T) {
	s := NewSample(100)
	for i := 0; i < 10000; i++ {
		s.Add(float64(i % 1000))
	}
	if len(s.values) != 100 {
		t.Fatalf("reservoir holds %d values, want 100", len(s.values))
	}
	// The reservoir median should still approximate the true median.
	if m := s.Quantile(0.5); m < 300 || m > 700 {
		t.Fatalf("reservoir median %v far from 499.5", m)
	}
	// Exact moments are unaffected by the reservoir.
	if m := s.Mean(); m != 499.5 {
		t.Fatalf("mean = %v, want 499.5", m)
	}
}

func TestConfidenceShrinks(t *testing.T) {
	small := NewSample(0)
	large := NewSample(0)
	seq := func(s *Sample, n int) {
		x := 1.0
		for i := 0; i < n; i++ {
			x = math.Mod(x*1.618033988749895+0.3, 1)
			s.Add(10 + x)
		}
	}
	seq(small, 50)
	seq(large, 5000)
	if small.HalfWidth99() <= large.HalfWidth99() {
		t.Fatalf("CI did not shrink with samples: %v vs %v", small.HalfWidth99(), large.HalfWidth99())
	}
	if large.RelativeError99() > 0.03 {
		t.Fatalf("5000 low-variance samples fail the paper's 3%%/99%% criterion (rel err %v)", large.RelativeError99())
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	err := quick.Check(func(vals []float64) bool {
		s := NewSample(0)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			s.Add(v)
		}
		return s.Variance() >= 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", XLabel: "load", YLabel: "latency"}
	a := &Series{Name: "a"}
	a.Add(0.2, 10, false)
	a.Add(0.4, 20, true)
	b := &Series{Name: "b"}
	b.Add(0.2, 11, false)
	tab.AddSeries(a)
	tab.AddSeries(b)
	tab.AddScalar("sat", 0.5, "frac")
	tab.AddNote("hello %d", 7)
	out := tab.String()
	for _, want := range []string{"== T ==", "load", "a", "b", "20*", "sat: 0.5 frac", "hello 7", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}
