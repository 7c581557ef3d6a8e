package arb

import (
	"testing"
	"testing/quick"
)

func TestTreeGrantsARequester(t *testing.T) {
	tr := NewTree(100, 4)
	err := quick.Check(func(seed uint64) bool {
		req := make([]bool, 100)
		any := false
		s := seed
		for i := range req {
			s = s*6364136223846793005 + 1442695040888963407
			req[i] = s>>61 == 0
			any = any || req[i]
		}
		w := tr.Arbitrate(req)
		if !any {
			return w == -1
		}
		return w >= 0 && w < 100 && req[w]
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTreeStages(t *testing.T) {
	cases := []struct{ n, m, want int }{
		{8, 8, 1},
		{64, 8, 2},
		{256, 8, 3},
		{4096, 8, 4},
		{100, 4, 4}, // 100 -> 25 -> 7 -> 2 -> 1
	}
	for _, c := range cases {
		if got := NewTree(c.n, c.m).Stages(); got != c.want {
			t.Errorf("Tree(%d,%d).Stages() = %d, want %d", c.n, c.m, got, c.want)
		}
	}
}

func TestTreeSingleRequester(t *testing.T) {
	tr := NewTree(256, 8)
	for _, i := range []int{0, 1, 7, 8, 63, 64, 100, 255} {
		req := make([]bool, 256)
		req[i] = true
		if w := tr.Arbitrate(req); w != i {
			t.Fatalf("sole requester %d granted %d", i, w)
		}
	}
}

func TestTreeFairness(t *testing.T) {
	tr := NewTree(27, 3)
	req := make([]bool, 27)
	for i := range req {
		req[i] = true
	}
	counts := make([]int, 27)
	for i := 0; i < 2700; i++ {
		counts[tr.Arbitrate(req)]++
	}
	for i, c := range counts {
		if c < 50 || c > 250 {
			t.Fatalf("line %d granted %d of 2700 (counts %v)", i, c, counts)
		}
	}
}

func TestTreeEmptyAndPanics(t *testing.T) {
	tr := NewTree(16, 4)
	if w := tr.Arbitrate(make([]bool, 16)); w != -1 {
		t.Fatalf("empty tree granted %d", w)
	}
	for name, fn := range map[string]func(){
		"n0":       func() { NewTree(0, 4) },
		"m1":       func() { NewTree(8, 1) },
		"mismatch": func() { tr.Arbitrate(make([]bool, 3)) },
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

func TestTreeSingleLine(t *testing.T) {
	tr := NewTree(1, 4)
	if w := tr.Arbitrate([]bool{true}); w != 0 {
		t.Fatalf("single line granted %d", w)
	}
	if w := tr.Arbitrate([]bool{false}); w != -1 {
		t.Fatalf("idle single line granted %d", w)
	}
}

func TestNewOutputArbiterSelection(t *testing.T) {
	if _, ok := NewOutputArbiter(8, 8).(*RoundRobin); !ok {
		t.Error("n<=m should be flat round-robin")
	}
	if _, ok := NewOutputArbiter(64, 8).(*LocalGlobal); !ok {
		t.Error("n<=m^2 should be local-global")
	}
	tr, ok := NewOutputArbiter(256, 8).(*Tree)
	if !ok {
		t.Fatal("n>m^2 should be a tree")
	}
	if tr.Stages() != 3 {
		t.Fatalf("256/8 tree has %d stages, want 3", tr.Stages())
	}
}

// TestTreeMatchesLocalGlobalContract: both structures over the same
// request vector grant a requesting line; their long-run fairness is
// equivalent within tolerance.
func TestTreeMatchesLocalGlobalContract(t *testing.T) {
	tr := NewTree(64, 8)
	lg := NewLocalGlobal(64, 8)
	req := make([]bool, 64)
	for i := range req {
		req[i] = i%3 == 0
	}
	trCounts := map[int]int{}
	lgCounts := map[int]int{}
	for i := 0; i < 660; i++ {
		trCounts[tr.Arbitrate(req)]++
		lgCounts[lg.Arbitrate(req)]++
	}
	for i, r := range req {
		if r && (trCounts[i] == 0 || lgCounts[i] == 0) {
			t.Fatalf("requester %d starved (tree %d, lg %d)", i, trCounts[i], lgCounts[i])
		}
		if !r && (trCounts[i] > 0 || lgCounts[i] > 0) {
			t.Fatalf("non-requester %d granted", i)
		}
	}
}

// TestTreeOneHot pins the one-hot fast path of ArbitrateBits to the
// []bool oracle: over random sequences interleaving one-hot, empty and
// dense request vectors, twin trees must agree on the grant and on every
// level's rotation pointers after every call — the fast path commits the
// pointers of its line's path without running either pass, so a pointer
// it missed (or moved at a ragged last node) would only surface as a
// wrong grant many calls later.
func TestTreeOneHot(t *testing.T) {
	for _, n := range []int{1, 9, 64, 65, 100, 256, 1000} {
		for _, m := range []int{2, 8, 64, 128} {
			oracle, fast := NewTree(n, m), NewTree(n, m)
			req := make([]bool, n)
			v := NewBitVec(n)
			s := uint64(n*131 + m)
			rnd := func() uint64 {
				s = s*6364136223846793005 + 1442695040888963407
				return s >> 33
			}
			for call := 0; call < 600; call++ {
				for i := range req {
					req[i] = false
				}
				switch kind := rnd() % 8; {
				case kind < 4: // one-hot, the last line (ragged node) over-represented
					line := int(rnd()) % n
					if rnd()%4 == 0 {
						line = n - 1
					}
					req[line] = true
				case kind == 4: // empty
				default: // dense
					for i := range req {
						req[i] = rnd()%3 == 0
					}
				}
				v.SetBools(req)
				want, got := oracle.Arbitrate(req), fast.ArbitrateBits(v)
				if got != want {
					t.Fatalf("n=%d m=%d call %d: ArbitrateBits granted %d, oracle %d", n, m, call, got, want)
				}
				for ni, p := range oracle.next {
					if q := fast.next[ni]; q != p {
						t.Fatalf("n=%d m=%d call %d: node %d pointer %d, oracle %d", n, m, call, ni, q, p)
					}
				}
			}
		}
	}
}
