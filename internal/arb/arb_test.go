package arb

import (
	"testing"
	"testing/quick"
)

func reqVec(n int, set ...int) []bool {
	v := make([]bool, n)
	for _, i := range set {
		v[i] = true
	}
	return v
}

func TestRoundRobinGrantsARequester(t *testing.T) {
	a := NewRoundRobin(8)
	err := quick.Check(func(mask uint8) bool {
		req := make([]bool, 8)
		any := false
		for i := 0; i < 8; i++ {
			req[i] = mask&(1<<i) != 0
			any = any || req[i]
		}
		w := a.Arbitrate(req)
		if !any {
			return w == -1
		}
		return w >= 0 && w < 8 && req[w]
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinRotation(t *testing.T) {
	a := NewRoundRobin(4)
	all := reqVec(4, 0, 1, 2, 3)
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, a.Arbitrate(all))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinFairnessUnderContention(t *testing.T) {
	a := NewRoundRobin(5)
	counts := make([]int, 5)
	all := reqVec(5, 0, 1, 2, 3, 4)
	for i := 0; i < 1000; i++ {
		counts[a.Arbitrate(all)]++
	}
	for i, c := range counts {
		if c != 200 {
			t.Fatalf("line %d granted %d times of 1000, want exactly 200 (counts %v)", i, c, counts)
		}
	}
}

func TestRoundRobinSkipsNonRequesters(t *testing.T) {
	a := NewRoundRobin(4)
	if w := a.Arbitrate(reqVec(4, 2)); w != 2 {
		t.Fatalf("granted %d, want 2", w)
	}
	// Pointer now at 3; line 1 should win when 1 and 2 request? Pointer
	// order: 3,0,1,2 -> first requester scanning from 3 is 1.
	if w := a.Arbitrate(reqVec(4, 1, 2)); w != 1 {
		t.Fatalf("granted %d, want 1", w)
	}
}

func TestRoundRobinPeekDoesNotAdvance(t *testing.T) {
	a := NewRoundRobin(3)
	all := reqVec(3, 0, 1, 2)
	if p := a.Peek(all); p != 0 {
		t.Fatalf("peek = %d want 0", p)
	}
	if p := a.Peek(all); p != 0 {
		t.Fatalf("second peek = %d want 0 (peek advanced pointer)", p)
	}
	if w := a.Arbitrate(all); w != 0 {
		t.Fatalf("arbitrate after peek = %d want 0", w)
	}
}

func TestRoundRobinSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch did not panic")
		}
	}()
	NewRoundRobin(4).Arbitrate(make([]bool, 5))
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"roundrobin-0":  func() { NewRoundRobin(0) },
		"rotorbank-0":   func() { NewRotorBank(0, 4) },
		"rotorbank-n0":  func() { NewRotorBank(4, 0) },
		"rotorbank-n65": func() { NewRotorBank(4, 65) },
		"bitvec-0":      func() { MakeBitVec(0) },
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

// TestMakeBitVecsRowsIndependent: rows carved from one slab behave as
// separate vectors — a row's last line never reads or writes its
// neighbour's first word.
func TestMakeBitVecsRowsIndependent(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200} {
		rows := MakeBitVecs(3, n)
		rows[1].Set(n - 1)
		rows[1].Set(0)
		if rows[0].Any() || rows[2].Any() {
			t.Fatalf("n=%d: a set bit leaked into a neighbouring row", n)
		}
		if n > 1 && (rows[1].Count() != 2 || rows[1].Next(1) != n-1) {
			t.Fatalf("n=%d: row reads back count %d, last line %d", n, rows[1].Count(), rows[1].Next(1))
		}
		if rows[0].Next(0) != -1 || rows[1].Len() != n {
			t.Fatalf("n=%d: scan ran past the row's end", n)
		}
	}
}
