package arb_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"highradix/internal/arb"
	"highradix/internal/sim"
)

// islipRound runs one Match over the given request matrix (reqs[o] is
// the set of inputs requesting output o) with every output eligible,
// and verifies the matching contract: every matched pair was requested,
// no input and no output appears in more than one pair, and matched
// outputs were cleared from the eligibility vector.
func islipRound(t *testing.T, s *arb.ISLIP, n, iters int, reqs []arb.BitVec) [][2]int {
	t.Helper()
	outEl := arb.NewBitVec(n)
	for o := 0; o < n; o++ {
		outEl.Set(o)
	}
	var pairs [][2]int
	got := s.Match(iters, reqs, outEl, func(in, out int) {
		pairs = append(pairs, [2]int{in, out})
	})
	if got != len(pairs) {
		t.Fatalf("Match returned %d, accept callback fired %d times", got, len(pairs))
	}
	inSeen := make([]bool, n)
	outSeen := make([]bool, n)
	for _, p := range pairs {
		in, out := p[0], p[1]
		if !reqs[out].Get(in) {
			t.Fatalf("granted pair (in=%d, out=%d) was never requested", in, out)
		}
		if inSeen[in] {
			t.Fatalf("input %d matched twice", in)
		}
		if outSeen[out] {
			t.Fatalf("output %d matched twice", out)
		}
		inSeen[in], outSeen[out] = true, true
		if outEl.Get(out) {
			t.Fatalf("matched output %d still marked eligible", out)
		}
	}
	return pairs
}

// TestISLIPPermutation: on a permutation request pattern (input i wants
// exactly output perm[i], no conflicts) a single iteration must match
// every pair — 100% throughput with nothing to disambiguate.
func TestISLIPPermutation(t *testing.T) {
	const n = 64
	s := arb.NewISLIP(n)
	perm := rand.New(rand.NewSource(7)).Perm(n)
	reqs := make([]arb.BitVec, n)
	for o := range reqs {
		reqs[o] = arb.MakeBitVec(n)
	}
	for i, o := range perm {
		reqs[o].Set(i)
	}
	for round := 0; round < 4; round++ {
		if got := len(islipRound(t, s, n, 1, reqs)); got != n {
			t.Fatalf("round %d: matched %d of %d pairs of a permutation", round, got, n)
		}
	}
}

// TestISLIPDesynchronization: under a fully loaded request matrix
// (every input requests every output) the first-iteration-only pointer
// update rule desynchronizes the pointers; after at most n warmup
// slots, every subsequent slot matches all n pairs even with a single
// iteration — the throughput claim of the iSLIP paper's Theorem 2.
func TestISLIPDesynchronization(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 100} {
		s := arb.NewISLIP(n)
		reqs := make([]arb.BitVec, n)
		for o := range reqs {
			reqs[o] = arb.MakeBitVec(n)
			for i := 0; i < n; i++ {
				reqs[o].Set(i)
			}
		}
		for round := 0; round < n; round++ {
			islipRound(t, s, n, 1, reqs)
		}
		for round := 0; round < 2*n; round++ {
			if got := len(islipRound(t, s, n, 1, reqs)); got != n {
				t.Fatalf("n=%d: desynchronized slot %d matched %d of %d", n, round, got, n)
			}
		}
	}
}

// TestISLIPMaximal: the refined match is maximal — after Match returns,
// no unmatched input still requests an unmatched output — whenever the
// iteration count reaches the structural bound (n iterations always
// suffice; the iSLIP paper shows convergence in O(log n) on average).
func TestISLIPMaximal(t *testing.T) {
	const n = 16
	rng := sim.NewRNG(99)
	s := arb.NewISLIP(n)
	reqs := make([]arb.BitVec, n)
	for o := range reqs {
		reqs[o] = arb.MakeBitVec(n)
	}
	for trial := 0; trial < 200; trial++ {
		for o := range reqs {
			reqs[o].Reset()
			for i := 0; i < n; i++ {
				if rng.Uint64()&3 == 0 {
					reqs[o].Set(i)
				}
			}
		}
		pairs := islipRound(t, s, n, n, reqs)
		inM := make([]bool, n)
		outM := make([]bool, n)
		for _, p := range pairs {
			inM[p[0]], outM[p[1]] = true, true
		}
		for o := 0; o < n; o++ {
			if outM[o] {
				continue
			}
			for i := 0; i < n; i++ {
				if reqs[o].Get(i) && !inM[i] {
					t.Fatalf("trial %d: match not maximal, (in=%d, out=%d) requested and both free", trial, i, o)
				}
			}
		}
	}
}

// TestISLIPQuick drives random sparse request matrices through Match
// with random iteration counts; islipRound asserts the matching
// contract on every call.
func TestISLIPQuick(t *testing.T) {
	prop := func(seed uint64, nRaw, itersRaw uint8) bool {
		n := 1 + int(nRaw)%96
		iters := 1 + int(itersRaw)%4
		rng := sim.NewRNG(seed)
		s := arb.NewISLIP(n)
		reqs := make([]arb.BitVec, n)
		for o := range reqs {
			reqs[o] = arb.MakeBitVec(n)
		}
		for round := 0; round < 8; round++ {
			for o := range reqs {
				reqs[o].Reset()
				for i := 0; i < n; i++ {
					if rng.Uint64()&7 == 0 {
						reqs[o].Set(i)
					}
				}
			}
			islipRound(t, s, n, iters, reqs)
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// FuzzISLIP feeds seeded random request streams of fuzzer-chosen size,
// density and iteration count through one persistent scheduler,
// checking the matching contract each slot and, on a saturated matrix,
// the desynchronization throughput bound.
func FuzzISLIP(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(1), uint8(3))
	f.Add(uint64(2), uint8(64), uint8(2), uint8(1))
	f.Add(uint64(3), uint8(100), uint8(4), uint8(7)) // multi-word vectors
	f.Add(uint64(0xfeedface), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, itersRaw, densRaw uint8) {
		n := 1 + int(nRaw)%128
		iters := 1 + int(itersRaw)%4
		dens := uint64(densRaw)%8 + 1 // request probability dens/16
		rng := sim.NewRNG(seed)
		s := arb.NewISLIP(n)
		reqs := make([]arb.BitVec, n)
		for o := range reqs {
			reqs[o] = arb.MakeBitVec(n)
		}
		for round := 0; round < 12; round++ {
			for o := range reqs {
				reqs[o].Reset()
				for i := 0; i < n; i++ {
					if rng.Uint64()&15 < dens {
						reqs[o].Set(i)
					}
				}
			}
			islipRound(t, s, n, iters, reqs)
		}
		// Saturate and require full matchings once the pointers have had
		// n slots to desynchronize.
		for o := range reqs {
			for i := 0; i < n; i++ {
				reqs[o].Set(i)
			}
		}
		for round := 0; round < n; round++ {
			islipRound(t, s, n, 1, reqs)
		}
		if got := len(islipRound(t, s, n, 1, reqs)); got != n {
			t.Fatalf("saturated slot matched %d of %d after desynchronization", got, n)
		}
	})
}
