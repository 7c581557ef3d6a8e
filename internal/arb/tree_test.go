package arb

import (
	"fmt"
	"testing"
	"testing/quick"

	"highradix/internal/sim"
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
		"bits":     func() { tr.ArbitrateBits(NewBitVec(3)) },
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
	for _, c := range []struct{ n, m, stages int }{{64, 8, 2}, {256, 8, 3}, {9, 3, 2}, {10, 3, 3}} {
		tr, ok := NewOutputArbiter(c.n, c.m).(*Tree)
		if !ok {
			t.Fatalf("n=%d > m=%d should be a tree", c.n, c.m)
		}
		if tr.Stages() != c.stages {
			t.Fatalf("%d/%d tree has %d stages, want %d", c.n, c.m, tr.Stages(), c.stages)
		}
	}
}

// treeTwins drives two identically built trees through one seeded
// request stream, one through ArbitrateBits and the other through the
// bottom-up Arbitrate oracle, and reports the first call at which they
// differ in the grant or in any node's rotation pointer. A pointer
// committed wrongly (or at a node off the winning path) would otherwise
// surface only as a wrong grant many calls later. Each call draws one
// of: a one-hot vector, the last line (ragged node) over-represented; the
// empty vector; a vector of Bernoulli(p) lines at a random p, full
// included — so the one-hot path, the register descent and the
// multi-word descent all run.
func treeTwins(seed uint64, n, m, calls int) error {
	oracle, fast := NewTree(n, m), NewTree(n, m)
	rng := sim.NewRNG(seed)
	req := make([]bool, n)
	v := NewBitVec(n)
	for call := 0; call < calls; call++ {
		for i := range req {
			req[i] = false
		}
		switch kind := rng.Intn(8); {
		case kind < 3:
			line := rng.Intn(n)
			if kind == 0 {
				line = n - 1
			}
			req[line] = true
		case kind == 3:
		default:
			p := rng.Float64()
			if kind == 7 {
				p = 1
			}
			for i := range req {
				req[i] = rng.Bernoulli(p)
			}
		}
		v.SetBools(req)
		want, got := oracle.Arbitrate(req), fast.ArbitrateBits(v)
		if got != want {
			return fmt.Errorf("n=%d m=%d call %d: ArbitrateBits granted %d, oracle %d", n, m, call, got, want)
		}
		for ni, p := range oracle.next {
			if q := fast.next[ni]; q != p {
				return fmt.Errorf("n=%d m=%d call %d: node %d pointer %d, oracle %d", n, m, call, ni, q, p)
			}
		}
	}
	return nil
}

// TestTreeMatchesLocalGlobalContract holds ArbitrateBits to the
// local-global contract — only the winning path's pointers commit —
// pointer for pointer against the oracle, over the shapes its paths
// take: one word at one to four levels with fan-ins 3, 4, 8 (lanes),
// 16, 32 and 64; ragged last groups; multi-word vectors under
// word-sized and wider-than-a-word (m > 64) nodes; and a deep binary
// tree.
func TestTreeMatchesLocalGlobalContract(t *testing.T) {
	shapes := []struct{ n, m int }{
		{9, 3}, {16, 4}, {64, 8}, {64, 16}, {64, 32}, {60, 64}, {64, 64}, // one word, one or two levels
		{27, 3}, {64, 4}, {40, 3}, {64, 3}, // one word, three and four levels
		{10, 4}, {50, 8}, {61, 16}, {33, 32}, // ragged last group
		{128, 8}, {256, 8}, {100, 7}, {192, 16}, {130, 32}, {256, 64}, // multi-word, word-sized nodes
		{130, 65}, {257, 65}, {320, 128}, {200, 100}, {300, 70}, // multi-word, nodes wider than a word
		{65, 2}, // seven levels
	}
	for i, s := range shapes {
		if err := treeTwins(uint64(i)*0x9e3779b97f4a7c15+1, s.n, s.m, 600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTreeOneHot pins one-hot vectors — the fast path above one word,
// the register descent within one — across radices and fan-ins either
// side of a word; treeTwins's stream makes three calls in eight one-hot.
func TestTreeOneHot(t *testing.T) {
	for _, n := range []int{1, 9, 64, 65, 100, 256, 1000} {
		for _, m := range []int{2, 8, 64, 128} {
			if err := treeTwins(uint64(n*131+m), n, m, 600); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestQuickTreeBitsMatchesBools(t *testing.T) {
	prop := func(seed uint64, nRaw uint16, mRaw uint8) bool {
		// Multi-word vectors and fan-ins beyond one word (m > 64) take
		// the range-search node path; n <= 64 the register descent.
		n := 1 + int(nRaw)%320
		m := 2 + int(mRaw)%126
		if err := treeTwins(seed^0x165667b19e3779f9, n, m, 192); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

// The paper's local-global arbiter (Figure 6) is the two-level Tree: a
// local round-robin per group of m lines, a global one over the groups.
// The tests below pin that shape.

func TestLocalGlobalGrantsARequester(t *testing.T) {
	a := NewTree(64, 8)
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
	a := NewTree(16, 4)
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

// TestLocalGlobalGroupsAndStages builds through NewLocalGlobal, the
// paper's name the benchmark ledger still spells, and checks it is the
// two-level tree.
func TestLocalGlobalGroupsAndStages(t *testing.T) {
	a := NewLocalGlobal(64, 8)
	if a.Stages() != 2 || a.levels[0].nodes != 8 {
		t.Fatalf("Stages() = %d with %d groups, want 2 with 8", a.Stages(), a.levels[0].nodes)
	}
	if single := NewLocalGlobal(8, 8); single.Stages() != 1 {
		t.Fatalf("degenerate Stages() = %d, want 1", single.Stages())
	}
	ragged := NewTree(10, 4) // groups of 4,4,2
	if lvl := ragged.levels[0]; lvl.nodes != 3 || lvl.last != 2 {
		t.Fatalf("ragged groups = %d (last %d), want 3 (last 2)", lvl.nodes, lvl.last)
	}
	req := make([]bool, 10)
	req[9] = true
	if w := ragged.Arbitrate(req); w != 9 {
		t.Fatalf("last ragged line: got %d, want 9", w)
	}
}

func TestLocalGlobalSingleRequester(t *testing.T) {
	a := NewTree(32, 8)
	for i := 0; i < 32; i++ {
		req := make([]bool, 32)
		req[i] = true
		if w := a.Arbitrate(req); w != i {
			t.Fatalf("sole requester %d granted %d", i, w)
		}
	}
}

func TestLocalGlobalOversizedGroupClamped(t *testing.T) {
	a := NewTree(4, 100)
	if a.Stages() != 1 || a.levels[0].last != 4 {
		t.Fatalf("Stages() = %d, want one group of 4", a.Stages())
	}
	req := []bool{false, true, false, true}
	if w := a.Arbitrate(req); w != 1 && w != 3 {
		t.Fatalf("granted %d", w)
	}
}

// TestQuickLocalGlobalBitsMatchesBools draws two-level shapes, m < n <=
// m^2, single- and multi-word, including groups wider than one word.
func TestQuickLocalGlobalBitsMatchesBools(t *testing.T) {
	prop := func(seed uint64, nRaw uint16, mRaw uint8) bool {
		m := 2 + int(mRaw)%95
		n := m + 1 + int(nRaw)%(min(m*m, 320)-m)
		if s := NewTree(n, m).Stages(); s != 2 {
			t.Logf("n=%d m=%d: %d stages, want 2", n, m, s)
			return false
		}
		if err := treeTwins(seed^0xc2b2ae3d27d4eb4f, n, m, 192); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLocalGlobalMovemask pins the shapes whose groups reduce with
// the SWAR movemask (lane widths 8, 16 and 32) in one register and
// through GroupAny over several words — n=64/m=8 is the paper's
// evaluation point, n=256/m=8 the radix-256 extension — plus the
// word-multiple and odd-width GroupAny branches.
func TestQuickLocalGlobalMovemask(t *testing.T) {
	shapes := []struct{ n, m int }{
		{64, 8}, {64, 16}, {64, 32}, {48, 8}, {40, 16},
		{128, 8}, {256, 8}, {256, 16}, {256, 32},
		{192, 16}, {100, 8}, {130, 32},
		{128, 64}, {256, 64}, {320, 128}, {257, 65}, {100, 7},
	}
	prop := func(seed uint64) bool {
		for _, s := range shapes {
			if err := treeTwins(seed, s.n, s.m, 192); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 16}); err != nil {
		t.Fatal(err)
	}
}
