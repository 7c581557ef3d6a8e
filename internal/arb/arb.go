// Package arb implements the arbiters used by the router
// microarchitectures in this repository.
//
// The paper's distributed switch allocator (Section 4.1) is built from
// round-robin arbiters arranged hierarchically: a local output arbiter
// selects among a co-located group of m inputs and forwards one request
// to a global output arbiter that selects among the k/m local winners
// — a two-level Tree, one structure at any depth. Section 4.4 adds a
// dual arbiter that prioritizes nonspeculative requests over
// speculative ones. Tiny arbiters kept by the thousand, such as a
// router input's choice among its VCs, live as rows of a RotorBank.
//
// Arbiters are single-winner: given a request vector they grant at most
// one requester per invocation. Fairness comes from a rotating priority
// pointer that advances past the most recent grant, exactly the
// "priority pointer which rotates in a round-robin manner based on the
// requests" described in the paper.
package arb

// Arbiter selects at most one winner from a request vector: requests
// arrive as a BitVec and the winner is found with word operations
// instead of an O(n) scan. ArbitrateBits returns the granted line, or
// -1 when no line is requesting. The vector's length must equal Size().
type Arbiter interface {
	ArbitrateBits(v *BitVec) int
	Size() int
}

// BitArbiter is Arbiter under a second name, for the callers (the
// frozen bench/layers.go) that spell the interface both ways.
type BitArbiter = Arbiter

// NewLocalGlobal is NewTree under the paper's name for its two-stage
// arbiter, kept for the same caller as BitArbiter.
func NewLocalGlobal(n, m int) *Tree { return NewTree(n, m) }

// RoundRobin is a rotating-priority arbiter over n request lines. After
// granting line g, the highest priority moves to line g+1 (mod n), which
// guarantees that a continuously-requesting line is served at least once
// every n grants (strong fairness).
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin returns a round-robin arbiter over n lines.
func NewRoundRobin(n int) *RoundRobin {
	a := MakeRoundRobin(n)
	return &a
}

// MakeRoundRobin returns a round-robin arbiter over n lines by value,
// for banks of arbiters stored in one flat slice.
func MakeRoundRobin(n int) RoundRobin {
	if n <= 0 {
		panic("arb: arbiter size must be positive")
	}
	return RoundRobin{n: n}
}

// Size returns the number of request lines.
func (a *RoundRobin) Size() int { return a.n }

// ArbitrateBits grants the requesting line cyclically closest to the
// priority pointer using a rotate-aware find-first-set, and advances
// the pointer past it. For n <= 64 this is three word operations.
func (a *RoundRobin) ArbitrateBits(v *BitVec) int {
	if v.n != a.n {
		panic("arb: request vector size mismatch")
	}
	var idx int
	if a.n <= 64 {
		idx = RotFirst(v.words[0], a.next)
	} else {
		idx = v.FirstFrom(a.next)
	}
	if idx >= 0 {
		a.advancePast(idx)
	}
	return idx
}

// advancePast commits a grant to line w: the highest priority moves to
// w+1 (mod n).
func (a *RoundRobin) advancePast(w int) {
	a.next = w + 1
	if a.next >= a.n {
		a.next = 0
	}
}

// RotorBank packs the rotation pointers of count independent
// round-robin arbiters, each over n <= 64 lines, into one flat byte
// array. A radix-k router holds a tiny arbiter per input over its VCs,
// and a buffered crossbar one per crosspoint (k*k of them); as separate
// RoundRobin objects each arbitration chases a pointer to its own heap
// allocation, while a bank keeps every pointer in a contiguous
// 1-byte-per-arbiter table that stays cache-resident.
// Arbitrate(i, w) is grant-for-grant identical to the i-th of count
// RoundRobins over n lines handed the same requests.
type RotorBank struct {
	n    int
	next []uint8
}

// NewRotorBank returns a bank of count round-robin arbiters over n
// lines each (1 <= n <= 64).
func NewRotorBank(count, n int) *RotorBank {
	if count <= 0 || n <= 0 {
		panic("arb: arbiter size must be positive")
	}
	if n > 64 {
		panic("arb: RotorBank needs at most 64 lines per arbiter")
	}
	return &RotorBank{n: n, next: make([]uint8, count)}
}

// Arbitrate grants from arbiter i's request word (line j at bit j) and
// advances that arbiter's priority pointer past the winner. Bits at or
// above the n lines of NewRotorBank must be zero.
func (b *RotorBank) Arbitrate(i int, w uint64) int {
	win := RotFirst(w, int(b.next[i]))
	if win >= 0 {
		p := win + 1
		if p >= b.n {
			p = 0
		}
		b.next[i] = uint8(p)
	}
	return win
}
