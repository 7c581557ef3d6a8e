package arb

// Tree is the paper's distributed output arbiter (Figure 6) at any
// depth: request lines are grouped into fan-in m at every level, with a
// round-robin arbiter per node, until a single root remains. Two levels
// are the paper's local-global arbiter — a local arbiter per group of m
// co-located inputs, a global arbiter over the n/m local winners — and
// the paper notes that "for very high-radix routers, the two-stage
// output arbiter can be extended to a larger number of stages"; Tree is
// both. NewOutputArbiter picks the shallowest tree whose every stage
// fits the fan-in budget.
//
// A node is just a rotation pointer, and a whole tree keeps its nodes'
// pointers in one flat array (level by level) rather than as separate
// RoundRobin objects or per-level slices, so a router holding hundreds
// of trees (one per output, one per credit-bus row) reads one small
// contiguous block per arbitration instead of chasing scattered heap
// objects.
type Tree struct {
	n      int
	m      int
	levels []treeLevel
	// next holds every node's rotation pointer: node ni of level li is
	// next[levels[li].off+ni].
	next []int32

	// scratch: up[li] holds the lines entering level li+1, bit ni
	// raised iff node ni of level li has a requester.
	up []BitVec
}

type treeLevel struct {
	// width is the number of lines entering this level and nodes the
	// number of arbiters reducing them; node ni arbitrates lines
	// [ni*m, ni*m+size) where size is m except at the last node, whose
	// fan-in is last.
	width, nodes, last int
	// off is the index of the level's first node in Tree.next.
	off int
}

// nodeSize returns the fan-in of node ni at the given level.
func (t *Tree) nodeSize(lvl *treeLevel, ni int) int {
	if ni == lvl.nodes-1 {
		return lvl.last
	}
	return t.m
}

// grant commits a grant to line w of the node whose pointer is next[i]
// and whose fan-in is size: the node's priority moves to w+1 (mod
// size).
func (t *Tree) grant(i, size, w int) {
	p := w + 1
	if p >= size {
		p = 0
	}
	t.next[i] = int32(p)
}

// NewTree builds a tree arbiter over n lines with fan-in m per stage.
func NewTree(n, m int) *Tree {
	if n <= 0 {
		panic("arb: arbiter size must be positive")
	}
	if m < 2 {
		panic("arb: tree fan-in must be at least 2")
	}
	t := &Tree{n: n, m: m}
	off := 0
	for width := n; ; {
		nodes := (width + m - 1) / m
		t.levels = append(t.levels, treeLevel{width: width, nodes: nodes, last: width - (nodes-1)*m, off: off})
		off += nodes
		if nodes == 1 {
			break // the root; a one-line tree is one node of fan-in one
		}
		width = nodes
	}
	t.next = make([]int32, off)
	t.up = make([]BitVec, len(t.levels)-1)
	for li := range t.up {
		t.up[li] = MakeBitVec(t.levels[li].nodes)
	}
	return t
}

// Size returns the number of request lines.
func (t *Tree) Size() int { return t.n }

// ArbitrateBits grants one requesting line, or -1 when none requests,
// committing the rotation pointers along the winning path only, so a
// group whose candidate loses higher up is not penalized. (Hardware
// commits every local winner's pointer; committing only the winning
// path gives the same long-run fairness and is not observable in any of
// the paper's experiments.)
//
// The descent is top-down: one GroupAny pass per level below the root
// raises a line for every node holding a requester, then one
// rotate-aware search per level — at the root, then at the one node on
// the winning path — picks the child to descend into and commits that
// node's pointer, so the cost is the reductions plus one search per
// level, at any radix and any fan-in. The paper's local-global arbiter
// over one word does it in registers (arbitrateWord).
//
// Off that path, a vector holding exactly one line — a credit-bus row
// almost always does, and so does an output column at moderate load —
// skips both: the line wins at every node on its path, so the grant
// commits the pointers past the line's position in each node, and
// nothing else is read.
func (t *Tree) ArbitrateBits(v *BitVec) int {
	if v.n != t.n {
		panic("arb: request vector size mismatch")
	}
	if t.n <= 64 && len(t.levels) == 2 {
		return t.arbitrateWord(v.words[0])
	}
	switch line := v.sole(); {
	case line == -1:
		return -1
	case line >= 0:
		at := line
		for li := range t.levels {
			lvl := &t.levels[li]
			node := at / t.m
			t.grant(lvl.off+node, t.nodeSize(lvl, node), at-node*t.m)
			at = node
		}
		return line
	}
	cur := v
	for li := range t.up {
		cur.GroupAny(&t.up[li], t.m)
		cur = &t.up[li]
	}
	// The root is the one node over all of cur's lines.
	top := len(t.levels) - 1
	root := &t.levels[top]
	var node int
	if root.width <= 64 {
		node = RotFirst(cur.words[0], int(t.next[root.off]))
	} else {
		node = bitPeekRange(cur, 0, root.width, int(t.next[root.off]))
	}
	t.grant(root.off, root.width, node)
	for li := top - 1; li >= 0; li-- {
		lines := v
		if li > 0 {
			lines = &t.up[li-1]
		}
		lvl := &t.levels[li]
		base, size, ptr := node*t.m, t.nodeSize(lvl, node), int(t.next[lvl.off+node])
		var win int
		if t.m <= 64 {
			win = RotFirst(lines.slice(base, size), ptr)
		} else {
			win = bitPeekRange(lines, base, size, ptr)
		}
		t.grant(lvl.off+node, size, win)
		node = base + win
	}
	return node
}

// arbitrateWord is ArbitrateBits for a two-level tree over at most 64
// lines — the paper's local-global arbiter, and every output arbiter of
// a radix-64 router — in registers: group presence (by the lane
// movemask at the paper's m = 8), a global RotFirst over the groups, a
// local one over the winning group's lines, bits [g*m, g*m+size) of w.
// Written out rather than run through the descent loop, the two
// searches branch-predict apart, about twice as fast.
func (t *Tree) arbitrateWord(w uint64) int {
	if w == 0 {
		return -1
	}
	var groups uint64
	if t.m == 8 || t.m == 16 || t.m == 32 {
		groups = laneAny(w, t.m)
	} else {
		groups = groupAnyWord(w, t.m)
	}
	root, lvl := &t.levels[1], &t.levels[0]
	g := RotFirst(groups, int(t.next[root.off]))
	t.grant(root.off, root.width, g)
	base, size := g*t.m, t.nodeSize(lvl, g)
	win := RotFirst(w>>uint(base)&(1<<uint(size)-1), int(t.next[lvl.off+g]))
	t.grant(lvl.off+g, size, win)
	return base + win
}

// bitPeekRange finds the requesting line cyclically closest to ptr
// among lines [base, base+size) of v, returned relative to base. It is
// the multi-word twin of RotFirst for nodes wider than 64 lines.
func bitPeekRange(v *BitVec, base, size, ptr int) int {
	if idx := v.NextIn(base+ptr, base+size); idx >= 0 {
		return idx - base
	}
	if idx := v.NextIn(base, base+ptr); idx >= 0 {
		return idx - base
	}
	return -1
}

// NewOutputArbiter returns the shallowest arbiter over n lines whose
// every stage has fan-in at most m: a flat round-robin when n <= m, and
// otherwise a Tree — the paper's two-stage local-global arbiter when
// n <= m^2, deeper beyond that.
func NewOutputArbiter(n, m int) Arbiter {
	if n <= m {
		return NewRoundRobin(n)
	}
	return NewTree(n, m)
}
