package arb

// Tree generalizes the local-global arbiter to an arbitrary number of
// stages: request lines are grouped into fan-in m at every level, with
// a round-robin arbiter per node, until a single root remains. The
// paper notes that "for very high-radix routers, the two-stage output
// arbiter can be extended to a larger number of stages" — Tree is that
// extension; NewOutputArbiter picks the shallowest structure whose
// every stage fits the fan-in budget.
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

	// scratch: per level the winners percolating up as next-level
	// requests, and each node's peeked local winner for the
	// downward commit (laid out like next).
	bitUp      []BitVec
	bitWinners []int32
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
	for width := n; width > 1; {
		nodes := (width + m - 1) / m
		t.levels = append(t.levels, treeLevel{width: width, nodes: nodes, last: width - (nodes-1)*m, off: off})
		off += nodes
		width = nodes
	}
	t.next = make([]int32, off)
	t.bitWinners = make([]int32, off)
	t.bitUp = make([]BitVec, len(t.levels))
	for li, lvl := range t.levels {
		t.bitUp[li] = MakeBitVec(lvl.nodes)
	}
	return t
}

// Size returns the number of request lines.
func (t *Tree) Size() int { return t.n }

// ArbitrateBits selects a winner by percolating per-group winners up
// the tree and committing the pointers along the winning path only, so
// a group whose candidate loses higher up is not penalized (the same
// convention as LocalGlobal). Each level reduces its request vector by
// groups with one GroupAny pass, then peeks a local winner only at the
// nodes that actually hold a requester (found by iterating the reduced
// vector's set bits), so the whole upward pass is O(active) at any
// radix and any fan-in. Winner entries at idle nodes go stale rather
// than being reset; that is safe because the downward pass descends set
// bits of the reduced vectors only.
//
// A vector holding exactly one line — a credit-bus row almost always
// does, and so does an output column at moderate load — skips both
// passes: the line wins at every node on its path, so the grant commits
// the same rotation pointers the downward pass would write, past the
// line's position in each node, and nothing else is read.
func (t *Tree) ArbitrateBits(v *BitVec) int {
	if v.n != t.n {
		panic("arb: request vector size mismatch")
	}
	switch line := v.sole(); {
	case line == -1 || len(t.levels) == 0:
		return line // empty, or the single line of a one-line tree
	case line >= 0:
		at := line
		for li := range t.levels {
			lvl := &t.levels[li]
			node := at / t.m
			p := at - node*t.m + 1
			if p >= t.nodeSize(lvl, node) {
				p = 0
			}
			t.next[lvl.off+node] = int32(p)
			at = node
		}
		return line
	}
	// Upward pass: raise the next level's request line for every node
	// with a requester, then peek those nodes' local winners.
	cur := v
	for li := range t.levels {
		lvl := &t.levels[li]
		next := &t.bitUp[li]
		cur.GroupAny(next, t.m)
		win, ptr := t.bitWinners[lvl.off:], t.next[lvl.off:]
		if t.m <= 64 {
			for ni := next.Next(0); ni >= 0; ni = next.Next(ni + 1) {
				win[ni] = int32(rotFirst(cur.slice(ni*t.m, t.nodeSize(lvl, ni)), int(ptr[ni])))
			}
		} else {
			// A node wider than one word searches its line range of cur in
			// place instead of slicing.
			for ni := next.Next(0); ni >= 0; ni = next.Next(ni + 1) {
				win[ni] = int32(bitPeekRange(cur, ni*t.m, t.nodeSize(lvl, ni), int(ptr[ni])))
			}
		}
		cur = next
	}
	// Downward pass: follow the winning path from the root (which holds
	// a requester, the vector being non-empty), committing each node's
	// pointer past its peeked winner.
	node := 0
	for li := len(t.levels) - 1; li >= 0; li-- {
		lvl := &t.levels[li]
		w := int(t.bitWinners[lvl.off+node])
		p := w + 1
		if p >= t.nodeSize(lvl, node) {
			p = 0
		}
		t.next[lvl.off+node] = int32(p)
		node = node*t.m + w
	}
	return node
}

// bitPeekRange finds the requesting line cyclically closest to ptr
// among lines [base, base+size) of v, returned relative to base. It is
// the multi-word twin of rotFirst for nodes wider than 64 lines.
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
// every stage has fan-in at most m: a flat round-robin when n <= m, the
// paper's two-stage local-global when n <= m^2, and a deeper tree
// beyond that.
func NewOutputArbiter(n, m int) Arbiter {
	switch {
	case n <= m:
		return NewRoundRobin(n)
	case n <= m*m:
		return NewLocalGlobal(n, m)
	default:
		return NewTree(n, m)
	}
}
