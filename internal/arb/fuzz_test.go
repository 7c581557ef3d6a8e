package arb_test

import (
	"testing"

	"highradix/internal/arb"
	"highradix/internal/sim"
)

// Fuzz targets for the hierarchical arbiters. Each derives a stream of
// random request vectors from the fuzzed seed and checks, on every
// invocation, the single-winner contract:
//
//   - the grant is one of the requesting lines (grants ⊆ requests),
//   - exactly one index is granted per invocation — an Arbitrate call
//     models one output port's cycle, so a second simultaneous grant
//     cannot exist by construction, and -1 is returned iff no line
//     requests,
//
// and, over a window, strong fairness: a line that requests on every
// invocation is granted within the structural bound of the arbiter
// (size of the rotation at each stage, multiplied along the path).
//
// The contract is checked on the []bool oracle (oracle_test.go), and
// every round is cross-checked against a bitset twin: an identically
// constructed arbiter driven through ArbitrateBits — the one
// implementation the routers run — must grant the same line.

// checkRound validates one arbitration against its request vector,
// cross-checks the bitset twin, and returns the winner.
func checkRound(t *testing.T, a arb.BoolArbiter, bits arb.Arbiter, v *arb.BitVec, req []bool) int {
	t.Helper()
	any := false
	for _, r := range req {
		any = any || r
	}
	w := a.Arbitrate(req)
	v.SetBools(req)
	if bw := bits.ArbitrateBits(v); bw != w {
		t.Fatalf("bitset twin granted %d, bool arbiter granted %d (req %v)", bw, w, req)
	}
	if !any {
		if w != -1 {
			t.Fatalf("granted line %d from an empty request vector", w)
		}
		return w
	}
	if w < 0 || w >= len(req) {
		t.Fatalf("winner %d out of range [0,%d)", w, len(req))
	}
	if !req[w] {
		t.Fatalf("granted line %d which was not requesting", w)
	}
	return w
}

// fillShaped draws one request vector. Shape 0 is the dense
// Bernoulli(p) stream, 1 a single random line, 2 the empty vector and 3
// one of those three per call — the sparse shapes steer the trees onto
// their one-hot and empty fast paths, which a dense stream over more
// than a few lines never produces.
func fillShaped(rng *sim.RNG, req []bool, p float64, shape uint8) {
	shape %= 4
	if shape == 3 {
		shape = uint8(rng.Intn(3))
	}
	for i := range req {
		req[i] = shape == 0 && rng.Bernoulli(p)
	}
	if shape == 1 {
		req[rng.Intn(len(req))] = true
	}
}

// runFairness drives the arbiter with shaped random vectors in which
// target always requests (so shape 2 is one-hot on target), and fails
// if target is not granted within bound invocations.
func runFairness(t *testing.T, a arb.BoolArbiter, bits arb.Arbiter, rng *sim.RNG, target, bound int, shape uint8) {
	t.Helper()
	n := a.Size()
	req := make([]bool, n)
	v := arb.NewBitVec(n)
	// Exercise the empty vector between fairness windows too.
	for i := range req {
		req[i] = false
	}
	checkRound(t, a, bits, v, req)
	for window := 0; window < 4; window++ {
		granted := -1
		for round := 0; round < bound; round++ {
			fillShaped(rng, req, 0.5, shape)
			req[target] = true
			if w := checkRound(t, a, bits, v, req); w == target {
				granted = round
				break
			}
		}
		if granted < 0 {
			t.Fatalf("line %d requested on every one of %d consecutive invocations without a grant (size %d)",
				target, bound, n)
		}
	}
}

func FuzzTree(f *testing.F) {
	f.Add(uint64(1), uint8(64), uint8(8), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(64), uint8(2), uint8(63), uint8(0))
	f.Add(uint64(3), uint8(27), uint8(3), uint8(13), uint8(0))
	f.Add(uint64(0xabad1dea), uint8(5), uint8(9), uint8(4), uint8(0))
	f.Add(uint64(7), uint8(255), uint8(6), uint8(200), uint8(0)) // three-stage tree over four words
	f.Add(uint64(8), uint8(250), uint8(98), uint8(17), uint8(0)) // nodes wider than one word
	f.Add(uint64(9), uint8(255), uint8(6), uint8(255), uint8(2)) // one-hot on the ragged last line
	f.Add(uint64(10), uint8(99), uint8(1), uint8(40), uint8(1))  // two-hot at most, seven stages
	f.Add(uint64(11), uint8(255), uint8(6), uint8(77), uint8(3)) // one-hot, empty and dense interleaved
	f.Add(uint64(1), uint8(64), uint8(7), uint8(0), uint8(0))    // two levels over two words, groups of 9
	f.Add(uint64(2), uint8(16), uint8(3), uint8(15), uint8(0))   // two levels, groups of 5
	f.Add(uint64(3), uint8(9), uint8(2), uint8(8), uint8(0))     // two levels, groups of 4,4,2
	f.Add(uint64(5), uint8(255), uint8(6), uint8(100), uint8(0)) // multi-word vector, byte lanes
	f.Add(uint64(6), uint8(199), uint8(70), uint8(50), uint8(0)) // two levels, groups wider than one word
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, targetRaw, shape uint8) {
		n := 1 + int(nRaw)     // up to 256: multi-word vectors included
		m := 2 + int(mRaw)%126 // tree fan-in must be >= 2; > 64 takes the range path
		a := arb.NewTree(n, m)
		if a.Size() != n {
			t.Fatalf("Size() = %d, want %d", a.Size(), n)
		}
		target := int(targetRaw) % n
		// Pointers commit only along the winning path, so the worst
		// case multiplies the rotation size at every stage.
		bound := 1
		for s := 0; s < a.Stages(); s++ {
			bound *= m
		}
		if bound > 1<<20 {
			bound = 1 << 20
		}
		runFairness(t, a, arb.NewTree(n, m), sim.NewRNG(seed^0x517cc1b727220a95), target, bound, shape)
	})
}

// FuzzOutputArbiter covers the selection logic that picks a flat
// round-robin or a tree depending on (n, m), ensuring the
// single-winner contract holds across the whole family exactly as the
// routers construct them.
func FuzzOutputArbiter(f *testing.F) {
	f.Add(uint64(1), uint8(63), uint8(6), uint8(0))
	f.Add(uint64(2), uint8(8), uint8(8), uint8(0))
	f.Add(uint64(3), uint8(64), uint8(2), uint8(0))
	f.Add(uint64(4), uint8(255), uint8(6), uint8(0))         // radix-256-sized tree selection
	f.Add(uint64(5), uint8(255), uint8(6), uint8(1))         // one-hot vectors: a credit-bus row's stream
	f.Add(uint64(6), uint8(127), uint8(6), uint8(2))         // empty vectors only
	f.Add(uint64(7), uint8(255), uint8(6), uint8(3))         // one-hot, empty and dense interleaved
	f.Add(uint64(0xfeedface), uint8(7), uint8(15), uint8(0)) // m > n: flat round-robin
	f.Add(uint64(42), uint8(1), uint8(0), uint8(0))          // two lines, m = 2
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, mRaw, shape uint8) {
		n := 1 + int(nRaw)
		m := 2 + int(mRaw)%126
		a := arb.NewOutputArbiter(n, m).(arb.BoolArbiter)
		bits := arb.NewOutputArbiter(n, m)
		rng := sim.NewRNG(seed ^ 0x2545f4914f6cdd1d)
		req := make([]bool, n)
		v := arb.NewBitVec(n)
		for round := 0; round < 256; round++ {
			fillShaped(rng, req, 0.3, shape)
			checkRound(t, a, bits, v, req)
		}
	})
}
