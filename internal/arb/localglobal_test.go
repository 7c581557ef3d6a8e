package arb

import (
	"testing"
	"testing/quick"
)

func TestLocalGlobalGrantsARequester(t *testing.T) {
	a := NewLocalGlobal(64, 8)
	err := quick.Check(func(seed uint64) bool {
		req := make([]bool, 64)
		any := false
		s := seed
		for i := range req {
			s = s*6364136223846793005 + 1442695040888963407
			req[i] = s>>62 == 0
			any = any || req[i]
		}
		w := a.Arbitrate(req)
		if !any {
			return w == -1
		}
		return w >= 0 && w < 64 && req[w]
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalGlobalFairness(t *testing.T) {
	a := NewLocalGlobal(16, 4)
	req := make([]bool, 16)
	for i := range req {
		req[i] = true
	}
	counts := make([]int, 16)
	for i := 0; i < 1600; i++ {
		counts[a.Arbitrate(req)]++
	}
	for i, c := range counts {
		// Strong long-run fairness: every continuously requesting line
		// is served; allow modest deviation from the exact share since
		// local and global pointers rotate independently.
		if c < 50 || c > 200 {
			t.Fatalf("line %d granted %d of 1600 (counts %v)", i, c, counts)
		}
	}
}

func TestLocalGlobalGroupsAndStages(t *testing.T) {
	a := NewLocalGlobal(64, 8)
	if a.Groups() != 8 {
		t.Fatalf("Groups() = %d, want 8", a.Groups())
	}
	if a.Stages() != 2 {
		t.Fatalf("Stages() = %d, want 2", a.Stages())
	}
	single := NewLocalGlobal(8, 8)
	if single.Stages() != 1 {
		t.Fatalf("degenerate Stages() = %d, want 1", single.Stages())
	}
	ragged := NewLocalGlobal(10, 4) // groups of 4,4,2
	if ragged.Groups() != 3 {
		t.Fatalf("ragged Groups() = %d, want 3", ragged.Groups())
	}
	req := make([]bool, 10)
	req[9] = true
	if w := ragged.Arbitrate(req); w != 9 {
		t.Fatalf("last ragged line: got %d, want 9", w)
	}
}

func TestLocalGlobalSingleRequester(t *testing.T) {
	a := NewLocalGlobal(32, 8)
	for i := 0; i < 32; i++ {
		req := make([]bool, 32)
		req[i] = true
		if w := a.Arbitrate(req); w != i {
			t.Fatalf("sole requester %d granted %d", i, w)
		}
	}
}

func TestLocalGlobalOversizedGroupClamped(t *testing.T) {
	a := NewLocalGlobal(4, 100)
	if a.Groups() != 1 {
		t.Fatalf("Groups() = %d, want 1", a.Groups())
	}
	req := []bool{false, true, false, true}
	if w := a.Arbitrate(req); w != 1 && w != 3 {
		t.Fatalf("granted %d", w)
	}
}

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

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"roundrobin-0": func() { NewRoundRobin(0) },
		"lg-n0":        func() { NewLocalGlobal(0, 4) },
		"lg-m0":        func() { NewLocalGlobal(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
