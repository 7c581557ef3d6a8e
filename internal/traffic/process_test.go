package traffic

import (
	"math"
	"testing"

	"highradix/internal/sim"
)

// TestMarkovInjectAhead: a run-ahead is the Inject calls it stands for —
// the same idle cycles, the same draws, the same burst state after — at
// limits that cut a run short anywhere, and at the rates that pin the
// chain OFF and ON.
func TestMarkovInjectAhead(t *testing.T) {
	for _, rate := range []float64{0, 1e-9, 0.05, 0.3, 0.9, 1} {
		for _, limit := range []int{0, 1, 2, 3, 50} {
			a, b := NewMarkovOnOff(rate, 4), NewMarkovOnOff(rate, 4)
			ra, rb := sim.NewRNG(9), sim.NewRNG(9)
			for call := 0; call < 3000; call++ {
				wantIdle, wantHit := 0, false
				for wantIdle < limit && !wantHit {
					if wantHit = b.Inject(rb); !wantHit {
						wantIdle++
					}
				}
				if idle, hit := a.InjectAhead(ra, limit); idle != wantIdle || hit != wantHit {
					t.Fatalf("rate %v limit %d call %d: %d idle cycles, hit %v; cycle by cycle %d, %v", rate, limit, call, idle, hit, wantIdle, wantHit)
				}
				if *a != *b || *ra != *rb {
					t.Fatalf("rate %v limit %d call %d: chain or stream state differs from the cycle-by-cycle walk's", rate, limit, call)
				}
			}
		}
	}
}

func TestMarkovLongRunRate(t *testing.T) {
	for _, rate := range []float64{0.1, 0.3, 0.6} {
		m := NewMarkovOnOff(rate, 8)
		rng := sim.NewRNG(2)
		hits := 0
		const draws = 400000
		for i := 0; i < draws; i++ {
			if m.Inject(rng) {
				hits++
			}
		}
		got := float64(hits) / draws
		if math.Abs(got-rate) > 0.03 {
			t.Fatalf("Markov(%v) long-run rate %v", rate, got)
		}
	}
}

func TestMarkovBurstLength(t *testing.T) {
	m := NewMarkovOnOff(0.2, 8)
	rng := sim.NewRNG(3)
	var bursts, packets int
	inBurst := false
	for i := 0; i < 400000; i++ {
		if m.Inject(rng) {
			if !inBurst {
				bursts++
				inBurst = true
			}
			packets++
		} else {
			inBurst = false
		}
	}
	avg := float64(packets) / float64(bursts)
	if math.Abs(avg-8) > 1.0 {
		t.Fatalf("average burst length %v, want ~8", avg)
	}
}

func TestMarkovSaturatedRatePinsOn(t *testing.T) {
	m := NewMarkovOnOff(1.0, 8)
	rng := sim.NewRNG(4)
	for i := 0; i < 1000; i++ {
		if !m.Inject(rng) {
			t.Fatal("rate-1 Markov process skipped a cycle")
		}
	}
}

func TestMarkovPanicsOnShortBurst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("burst length < 1 did not panic")
		}
	}()
	NewMarkovOnOff(0.5, 0.5)
}

// TestBurstPatternHoldsDestination verifies that all packets within one
// ON burst of a source share a destination and that destinations are
// re-drawn across bursts.
func TestBurstPatternHoldsDestination(t *testing.T) {
	const k = 64
	m := NewMarkovOnOff(0.3, 8)
	bp := NewBurstPattern(NewUniform(k), []Burster{m})
	rng := sim.NewRNG(5)
	var burstDests []int // first destination of each burst
	cur := -1
	inBurst := false
	for i := 0; i < 200000; i++ {
		if m.Inject(rng) {
			d := bp.Dest(0, rng)
			if !inBurst {
				inBurst = true
				cur = d
				burstDests = append(burstDests, d)
			} else if d != cur {
				t.Fatalf("destination changed mid-burst: %d -> %d", cur, d)
			}
		} else {
			inBurst = false
		}
	}
	if len(burstDests) < 100 {
		t.Fatalf("only %d bursts observed", len(burstDests))
	}
	distinct := map[int]bool{}
	for _, d := range burstDests {
		distinct[d] = true
	}
	if len(distinct) < k/2 {
		t.Fatalf("burst destinations not re-drawn: %d distinct of %d bursts", len(distinct), len(burstDests))
	}
}
