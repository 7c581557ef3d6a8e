package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded RNG produced duplicates in 100 draws: %d unique", len(seen))
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	err := quick.Check(func(n uint16) bool {
		bound := int(n%1000) + 1
		v := r.Intn(bound)
		return v >= 0 && v < bound
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(5)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate %v", p, got)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(13)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams overlapped in %d of 100 draws", same)
	}
}

// thresholdRates are the rates whose thresholds the tests below pin:
// both ends, their neighbours one ulp of Float64's grid away, and a rate
// that is no probability at all.
var thresholdRates = []float64{0, 1.0 / (1 << 53), 0.125, 0.5, 1 - 1.0/(1<<53), 1, 1.5}

// TestBernoulliThreshold: the integer comparison is Bernoulli's float
// comparison, on a million draws and on the three values of the 53-bit
// draw around every threshold.
func TestBernoulliThreshold(t *testing.T) {
	float := func(m uint64) float64 { return float64(m) / (1 << 53) } // Float64 of a draw whose top 53 bits are m
	for _, p := range append([]float64{0.001, 0.3, math.NaN()}, thresholdRates...) {
		thr := BernoulliThreshold(p)
		for _, m := range []uint64{thr - 1, thr, thr + 1} {
			if m >= 1<<53 { // not a draw: below a zero threshold or above the grid
				continue
			}
			if (m < thr) != (float(m) < p) {
				t.Errorf("p=%v threshold %d: draw %d is %v by integer, %v by float", p, thr, m, m < thr, float(m) < p)
			}
		}
		a, b := NewRNG(77), NewRNG(77)
		for i := 0; i < 1000000; i++ {
			if got, want := a.Uint64()>>11 < thr, b.Bernoulli(p); got != want {
				t.Fatalf("p=%v draw %d: integer form %v, Bernoulli %v", p, i, got, want)
			}
		}
	}
}

// TestBernoulliAhead: one call is the Bernoulli calls it stands for —
// same outcomes, same number of draws consumed — whatever the limit,
// including limits that end a call on a failure, on the success itself
// and before any draw.
func TestBernoulliAhead(t *testing.T) {
	for _, p := range append([]float64{0.001, 0.3}, thresholdRates...) {
		thr := BernoulliThreshold(p)
		for _, limit := range []int{0, 1, 2, 3, 7, 500} {
			a, b := NewRNG(31), NewRNG(31)
			for call := 0; call < 2000; call++ {
				wantFailed, wantHit := 0, false
				for wantFailed < limit && !wantHit {
					if wantHit = b.Bernoulli(p); !wantHit {
						wantFailed++
					}
				}
				if failed, hit := a.BernoulliAhead(thr, limit); failed != wantFailed || hit != wantHit {
					t.Fatalf("p=%v limit %d call %d: %d failures, hit %v; per-draw loop %d, %v", p, limit, call, failed, hit, wantFailed, wantHit)
				}
				if *a != *b {
					t.Fatalf("p=%v limit %d call %d: stream state differs from the per-draw loop's", p, limit, call)
				}
			}
		}
	}
}

// TestBernoulliAheadGeometric: the failures before a success are
// geometric with mean (1-p)/p — the distribution test the per-cycle
// Bernoulli process carried.
func TestBernoulliAheadGeometric(t *testing.T) {
	r := NewRNG(1)
	const p, events = 0.2, 100000
	thr := BernoulliThreshold(p)
	total := 0
	for i := 0; i < events; i++ {
		failed, hit := r.BernoulliAhead(thr, 1<<20)
		if !hit {
			t.Fatalf("no success in %d draws at p=%v", failed, p)
		}
		total += failed
	}
	if got, want := float64(total)/events, (1-p)/p; math.Abs(got-want) > 0.05 {
		t.Fatalf("mean failures before a success %v, want ~%v", got, want)
	}
}
