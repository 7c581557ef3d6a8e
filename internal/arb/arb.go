// Package arb implements the arbiters used by the router
// microarchitectures in this repository.
//
// The paper's distributed switch allocator (Section 4.1) is built from
// round-robin arbiters arranged hierarchically: a local output arbiter
// selects among a co-located group of m inputs and forwards one request
// to a global output arbiter that selects among the k/m local winners.
// Section 4.4 adds a dual arbiter that prioritizes nonspeculative
// requests over speculative ones. All of those are provided here.
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
		idx = rotFirst(v.words[0], a.next)
	} else {
		idx = v.FirstFrom(a.next)
	}
	if idx >= 0 {
		a.advancePast(idx)
	}
	return idx
}

// ArbitrateWord grants from a request vector handed over as a single
// word (line i at bit i), for callers that assemble tiny vectors — a
// router input's per-VC requests, say — directly in a register. Only
// valid for arbiters of at most 64 lines; grant-for-grant identical to
// ArbitrateBits on the same bits.
func (a *RoundRobin) ArbitrateWord(w uint64) int {
	if a.n > 64 {
		panic("arb: ArbitrateWord needs at most 64 lines")
	}
	return a.arbitrateWord(w)
}

// arbitrateWord is the grouped-stage entry point: an arbiter of size
// <= 64 whose request lines were sliced out of a larger BitVec receives
// them as a single word.
func (a *RoundRobin) arbitrateWord(grp uint64) int {
	w := rotFirst(grp, a.next)
	if w >= 0 {
		a.advancePast(w)
	}
	return w
}

// arbitrateRange is the grouped-stage entry point for nodes wider than
// one word: the arbiter's n request lines live at [base, base+n) of a
// larger BitVec and are searched in place with the bounded rotate-aware
// scan, so no per-group extraction is needed at any fan-in.
// Grant-for-grant identical to arbitrateWord on the sliced-out bits.
func (a *RoundRobin) arbitrateRange(v *BitVec, base int) int {
	w := bitPeekRange(v, base, a.n, a.next)
	if w >= 0 {
		a.advancePast(w)
	}
	return w
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
// array. A radix-k crossbar holds a tiny arbiter per crosspoint (k*k of
// them); as separate RoundRobin objects each arbitration chases a
// pointer to its own heap allocation, while a bank keeps every pointer
// in a contiguous 1-byte-per-arbiter table that stays cache-resident.
// Arbitrate(i, w) is grant-for-grant identical to an i-th RoundRobin's
// ArbitrateWord(w).
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
	win := rotFirst(w, int(b.next[i]))
	if win >= 0 {
		p := win + 1
		if p >= b.n {
			p = 0
		}
		b.next[i] = uint8(p)
	}
	return win
}
