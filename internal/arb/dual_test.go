package arb

import "testing"

func TestDualPrioritizesNonspec(t *testing.T) {
	mk := func(n int) Arbiter { return NewRoundRobin(n) }
	d := NewDual(4, mk)
	nonspec := reqVec(4, 2)
	spec := reqVec(4, 0, 1)
	w, s := d.Arbitrate(nonspec, spec)
	if w != 2 || s {
		t.Fatalf("got (%d, spec=%v), want nonspec 2", w, s)
	}
	// With no nonspec requests the speculative arbiter wins.
	w, s = d.Arbitrate(reqVec(4), spec)
	if !s || !spec[w] {
		t.Fatalf("got (%d, spec=%v), want speculative grant", w, s)
	}
}

// TestDualSpecPointerFrozenByNonspec pins the Section 4.4 fairness rule:
// the speculative arbiter's pointer advances only when a speculative
// request is actually granted.
func TestDualSpecPointerFrozenByNonspec(t *testing.T) {
	mk := func(n int) Arbiter { return NewRoundRobin(n) }
	d := NewDual(4, mk)
	spec := reqVec(4, 0, 1, 2, 3)
	// Rounds with nonspec present: spec pointer must not move.
	for i := 0; i < 3; i++ {
		if w, s := d.Arbitrate(reqVec(4, 1), spec); w != 1 || s {
			t.Fatalf("round %d: got (%d,%v)", i, w, s)
		}
	}
	if w, s := d.Arbitrate(reqVec(4), spec); w != 0 || !s {
		t.Fatalf("first spec grant = %d (spec=%v), want 0 — pointer moved while nonspec won", w, s)
	}
	if w, _ := d.Arbitrate(reqVec(4), spec); w != 1 {
		t.Fatalf("second spec grant = %d, want 1", w)
	}
}

func TestDualEmpty(t *testing.T) {
	d := NewDual(4, func(n int) Arbiter { return NewRoundRobin(n) })
	if w, s := d.Arbitrate(reqVec(4), reqVec(4)); w != -1 || s {
		t.Fatalf("empty dual arbitration granted (%d,%v)", w, s)
	}
}
