package arb

// The []bool reference arbiters. Every policy has exactly one
// implementation outside the tests, the bitset one the routers drive;
// the O(n) slice walks below are the oracle it is held to. They are
// methods on the same types over the same rotation pointers, so a twin
// instance driven through Arbitrate must agree with one driven through
// ArbitrateBits grant for grant (and, for Tree, pointer for pointer:
// treeTwins in tree_test.go). Being test code they allocate their
// scratch per call.

// BoolArbiter is the oracle entry point shared by RoundRobin and Tree.
type BoolArbiter interface {
	Arbitrate(requests []bool) int
	Size() int
}

// rotPeekBool is the []bool twin of RotFirst: the requesting index
// cyclically closest to ptr, or -1 if none requests.
func rotPeekBool(grp []bool, ptr int) int {
	n := len(grp)
	for i := 0; i < n; i++ {
		idx := ptr + i
		if idx >= n {
			idx -= n
		}
		if grp[idx] {
			return idx
		}
	}
	return -1
}

// Peek returns the line that would win without updating the priority
// pointer. It returns -1 when no line requests.
func (a *RoundRobin) Peek(requests []bool) int {
	if len(requests) != a.n {
		panic("arb: request vector size mismatch")
	}
	return rotPeekBool(requests, a.next)
}

// Arbitrate grants the requesting line closest to the priority pointer
// and advances the pointer past it. It returns -1 when no line requests.
func (a *RoundRobin) Arbitrate(requests []bool) int {
	w := a.Peek(requests)
	if w >= 0 {
		a.advancePast(w)
	}
	return w
}

// Arbitrate selects a winner by percolating per-group winners up the
// tree and committing the pointers along the winning path only. It is
// a different algorithm from ArbitrateBits's top-down descent — every
// node peeks a winner, bottom-up — held to the same pointers.
func (t *Tree) Arbitrate(requests []bool) int {
	if len(requests) != t.n {
		panic("arb: request vector size mismatch")
	}
	// Upward pass: per level, the winner index within each group; a
	// group with a winner requests at the next level.
	wins := make([][]int, len(t.levels))
	cur := requests
	for li := range t.levels {
		lvl := &t.levels[li]
		wins[li] = make([]int, lvl.nodes)
		next := make([]bool, lvl.nodes)
		for ni := 0; ni < lvl.nodes; ni++ {
			base := ni * t.m
			w := rotPeekBool(cur[base:base+t.nodeSize(lvl, ni)], int(t.next[lvl.off+ni]))
			wins[li][ni] = w
			next[ni] = w >= 0
		}
		cur = next
	}
	if !cur[0] {
		return -1
	}
	// Downward pass: follow the winning path from the root, committing
	// each node's pointer past its winner.
	node := 0
	for li := len(t.levels) - 1; li >= 0; li-- {
		lvl := &t.levels[li]
		w := wins[li][node]
		t.grant(lvl.off+node, t.nodeSize(lvl, node), w)
		node = node*t.m + w
	}
	return node
}

// Arbitrate is the []bool twin of Dual.ArbitrateBits, over the oracle
// entry points of the same two arbiters.
func (a *Dual) Arbitrate(nonspecReq, specReq []bool) (winner int, spec bool) {
	if len(nonspecReq) != a.n || len(specReq) != a.n {
		panic("arb: request vector size mismatch")
	}
	if w := a.nonspec.(BoolArbiter).Arbitrate(nonspecReq); w >= 0 {
		return w, false
	}
	if w := a.spec.(BoolArbiter).Arbitrate(specReq); w >= 0 {
		return w, true
	}
	return -1, false
}

// SetBools re-initializes v from a []bool request vector of equal
// length.
func (v *BitVec) SetBools(req []bool) {
	if len(req) != v.n {
		panic("arb: request vector size mismatch")
	}
	v.Reset()
	for i, r := range req {
		if r {
			v.Set(i)
		}
	}
}

// FillBools writes v out into a []bool request vector of equal length.
func (v *BitVec) FillBools(dst []bool) {
	if len(dst) != v.n {
		panic("arb: request vector size mismatch")
	}
	for i := range dst {
		dst[i] = v.Get(i)
	}
}
