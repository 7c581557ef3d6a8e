package traffic_test

import (
	"math"
	"testing"

	"highradix/internal/sim"
	"highradix/internal/traffic"
)

// These tests are the distributional half of the gap-sampling
// equivalence argument (the byte-level half is the twin tests in
// internal/testbench and internal/network): the gap samplers must
// reproduce, cell for cell, the distributions the per-cycle processes
// generate — geometric inter-arrival gaps for Bernoulli, geometric
// burst lengths and silent gaps for the Markov ON/OFF chain — and the
// per-cycle chain itself is pinned to the same closed forms, so the two
// implementations are held to one hypothesis. Seeds are fixed;
// failures mean a distribution changed, not bad luck.

// geomProbs returns the pmf of first+Geom(p) over {first..first+bins-1}
// with the remaining mass lumped into a final tail cell.
func geomProbs(p float64, bins int) []float64 {
	probs := make([]float64, bins+1)
	q := 1.0
	for j := 0; j < bins; j++ {
		probs[j] = p * q
		q *= 1 - p
	}
	probs[bins] = q // tail
	return probs
}

// binTail increments hist for value v (offset so the first cell is 0),
// clamping to the tail cell.
func binTail(hist []int, v int64) {
	if v >= int64(len(hist)-1) {
		v = int64(len(hist) - 1)
	}
	hist[v]++
}

func checkChi(t *testing.T, what string, hist []int, probs []float64, n int) {
	t.Helper()
	stat, cells, stray := chiSquare(hist, probs, n)
	if stray > 0 {
		t.Errorf("%s: %d samples outside support", what, stray)
	}
	if crit := critValue(cells - 1); stat > crit {
		t.Errorf("%s: chi-square %.1f exceeds the 0.001 critical value %.1f (df %d)",
			what, stat, crit, cells-1)
	}
}

// TestBernoulliGapGeometric pins the gap sampler to the geometric
// inter-arrival law of a per-cycle Bernoulli(p): successive injection
// cycles differ by 1 + Geom(p) (equivalently, the idle run between
// injections is Geom(p) over {0,1,...}).
func TestBernoulliGapGeometric(t *testing.T) {
	const n = 20000
	cases := []struct {
		rate float64
		bins int
	}{
		{0.05, 60},
		{0.3, 20},
		{0.7, 8},
	}
	for _, tc := range cases {
		g := traffic.NewBernoulliGap(tc.rate)
		rng := sim.NewRNG(0x6a90001 ^ math.Float64bits(tc.rate))
		hist := make([]int, tc.bins+1)
		at := g.NextInject(0, rng)
		for i := 0; i < n; i++ {
			next := g.NextInject(at+1, rng)
			binTail(hist, next-at-1) // idle cycles between injections
			at = next
		}
		checkChi(t, "bernoulli-gap", hist, geomProbs(tc.rate, tc.bins), n)
	}
}

// TestBernoulliGapMeanRate pins the long-run rate: injections per cycle
// over a long horizon must match the configured rate.
func TestBernoulliGapMeanRate(t *testing.T) {
	for _, rate := range []float64{0.02, 0.2, 0.9} {
		g := traffic.NewBernoulliGap(rate)
		rng := sim.NewRNG(0x6a90002)
		const n = 100000
		var at int64
		at = g.NextInject(0, rng)
		for i := 1; i < n; i++ {
			at = g.NextInject(at+1, rng)
		}
		got := float64(n) / float64(at+1)
		if math.Abs(got-rate) > 0.02*rate+0.002 {
			t.Errorf("rate %v: long-run rate %v", rate, got)
		}
	}
}

// markovSample drives a MarkovOnOffGap and splits its event stream into
// burst lengths and inter-burst silent gaps.
func markovSample(rate, avgBurst float64, events int, seed uint64) (bursts, gaps []int64, lastAt int64) {
	m := traffic.NewMarkovOnOffGap(rate, avgBurst)
	rng := sim.NewRNG(seed)
	prev := int64(-1) // first call asks from cycle 0
	var burstLen int64
	for i := 0; i < events; i++ {
		at := m.NextInject(prev+1, rng)
		if at == prev+1 && burstLen > 0 {
			burstLen++
		} else {
			if burstLen > 0 {
				bursts = append(bursts, burstLen)
				gaps = append(gaps, at-prev-1)
			}
			burstLen = 1
		}
		prev = at
	}
	return bursts, gaps, prev
}

// TestMarkovOnOffGapDistributions pins the gap-sampled chain to the
// two-state chain's closed forms: burst length 1 + Geom(beta) and
// inter-burst silent gap 1 + Geom(alpha), with beta = 1/avgBurst and
// alpha = rate*beta/(1-rate).
func TestMarkovOnOffGapDistributions(t *testing.T) {
	const rate, avgBurst = 0.2, 8.0
	beta := 1.0 / avgBurst
	alpha := rate * beta / (1 - rate)
	bursts, gaps, lastAt := markovSample(rate, avgBurst, 40000, 0x6a90003)
	if len(bursts) < 2000 {
		t.Fatalf("only %d bursts sampled", len(bursts))
	}
	bHist := make([]int, 31)
	for _, l := range bursts {
		binTail(bHist, l-1)
	}
	checkChi(t, "burst length", bHist, geomProbs(beta, 30), len(bursts))
	gHist := make([]int, 121)
	for _, s := range gaps {
		binTail(gHist, s-1)
	}
	checkChi(t, "silent gap", gHist, geomProbs(alpha, 120), len(gaps))
	got := 40000 / float64(lastAt+1)
	if math.Abs(got-rate) > 0.05*rate {
		t.Errorf("long-run rate %v, want ~%v", got, rate)
	}
}

// TestMarkovPerCycleMatchesSameForms holds the per-cycle chain to the
// identical closed forms, so the gap and per-cycle implementations are
// pinned to one hypothesis rather than merely to each other.
func TestMarkovPerCycleMatchesSameForms(t *testing.T) {
	const rate, avgBurst = 0.2, 8.0
	beta := 1.0 / avgBurst
	alpha := rate * beta / (1 - rate)
	m := traffic.NewMarkovOnOff(rate, avgBurst)
	rng := sim.NewRNG(0x6a90004)
	var bursts, gaps []int64
	var burstLen, gapLen int64
	for events := 0; events < 40000; {
		if m.Inject(rng) {
			events++
			if burstLen == 0 && gapLen > 0 && len(bursts) > 0 {
				gaps = append(gaps, gapLen)
			}
			gapLen = 0
			burstLen++
		} else {
			if burstLen > 0 {
				bursts = append(bursts, burstLen)
			}
			burstLen = 0
			gapLen++
		}
	}
	bHist := make([]int, 31)
	for _, l := range bursts {
		binTail(bHist, l-1)
	}
	checkChi(t, "per-cycle burst length", bHist, geomProbs(beta, 30), len(bursts))
	gHist := make([]int, 121)
	for _, s := range gaps {
		binTail(gHist, s-1)
	}
	checkChi(t, "per-cycle silent gap", gHist, geomProbs(alpha, 120), len(gaps))
}

// TestGapEdgeRates pins the degenerate rates: 0 never injects (NoWake)
// and 1 injects every cycle.
func TestGapEdgeRates(t *testing.T) {
	rng := sim.NewRNG(0x6a90005)
	if at := traffic.NewBernoulliGap(0).NextInject(5, rng); at != sim.NoWake {
		t.Errorf("rate-0 Bernoulli gap injected at %d", at)
	}
	g := traffic.NewBernoulliGap(1)
	m := traffic.NewMarkovOnOffGap(1, 8)
	for at := int64(3); at < 103; at++ {
		if got := g.NextInject(at, rng); got != at {
			t.Fatalf("rate-1 Bernoulli gap: NextInject(%d) = %d", at, got)
		}
		if got := m.NextInject(at, rng); got != at {
			t.Fatalf("rate-1 Markov gap: NextInject(%d) = %d", at, got)
		}
	}
}
