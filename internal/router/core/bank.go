package core

import (
	"highradix/internal/arb"
	"highradix/internal/flit"
)

// Front is the cached head-of-line state of one input VC, plus the VC's
// slice of allocator state (OutVC, Rot), so per-cycle eligibility scans
// and request construction read one flat table and never touch the
// buffer structs. The head-of-line fields are refreshed at the only two
// places the front can change — Accept into an empty buffer and Pop —
// while OutVC and Rot persist across those refreshes, because they
// belong to the head *packet*, not the head flit.
type Front struct {
	// Inj is the head flit's InjectedAt, or FrontNone when the buffer is
	// empty.
	Inj int64
	// Pkt is the head flit's packet ID.
	Pkt uint64
	// Dst is the head flit's destination output port.
	Dst int32
	// OutVC is the allocated output virtual channel of the packet whose
	// flits currently occupy the front of the queue; -1 while the head
	// packet has not completed VC allocation.
	OutVC int16
	// Rot rotates the speculative output-VC choice across allocation
	// attempts so a failed speculation eventually finds a free VC
	// (Section 4.4's re-bidding).
	Rot uint8
	// Head marks the head flit of a packet at the front.
	Head bool
}

// FrontNone marks an empty input VC in the front cache; it is far
// enough in the future that the `now > Inj` eligibility test always
// fails.
const FrontNone = int64(1) << 62

// InputBank is the bank of input virtual-channel buffers of all router
// ports, flat-indexed [input*vcs+vc]. It owns the front cache, the
// per-input full bitsets behind CanAccept, and the occupied active set
// that allocators iterate instead of scanning every port.
type InputBank struct {
	vcs   int
	obs   Obs
	q     FIFOBank
	front []Front
	// full[i] has bit c set while input buffer (i,c) is at capacity;
	// CanAccept becomes one word test instead of a queue-struct load (VC
	// counts above 64 are rejected by the router configuration layer).
	full []uint64
	// held[i] has bit c set while input buffer (i,c) holds a flit, so
	// allocators iterate an input's occupied VCs instead of testing all.
	held     []uint64
	occ      ActiveSet
	buffered int // total flits across all queues
}

// makeInputBank returns a bank of inputs x vcs buffers over q, one FIFO
// per buffer, by value for embedding.
func makeInputBank(obs Obs, q FIFOBank, inputs, vcs int) InputBank {
	b := InputBank{
		vcs:   vcs,
		obs:   obs,
		q:     q,
		front: make([]Front, inputs*vcs),
		full:  make([]uint64, inputs),
		held:  make([]uint64, inputs),
		occ:   MakeActiveSet(inputs),
	}
	for i := range b.front {
		b.front[i].Inj = FrontNone
		b.front[i].OutVC = -1
	}
	return b
}

// CanAccept reports whether input buffer (input, vc) has a free slot —
// the upstream side of credit flow control.
func (b *InputBank) CanAccept(input, vc int) bool {
	return b.full[input]>>uint(vc)&1 == 0
}

// Accept places f into input buffer (f.Src, f.VC), stamps its injection
// cycle, refreshes the front cache when it lands at the head, and emits
// EvAccept. Accepting into a full buffer is a flow-control violation.
func (b *InputBank) Accept(now int64, f *flit.Flit) {
	f.InjectedAt = now
	if !b.CanAccept(f.Src, f.VC) {
		Violatef("input %d VC %d overflow: %v accepted beyond depth %d (credit accounting bug)",
			f.Src, f.VC, f, b.q.depth)
	}
	idx := f.Src*b.vcs + f.VC
	n := b.q.Push(idx, f)
	if n == b.q.depth {
		b.full[f.Src] |= 1 << uint(f.VC)
	}
	if n == 1 {
		fr := &b.front[idx]
		fr.Inj, fr.Pkt, fr.Dst, fr.Head = now, f.PacketID, int32(f.Dst), f.Head
		b.held[f.Src] |= 1 << uint(f.VC)
	}
	b.occ.Inc(f.Src)
	b.buffered++
	b.obs.Emit(now, EvAccept, f, f.Src, f.Dst, f.VC, "")
}

// Pop removes and returns the front flit of (input, vc), refreshing the
// front cache (OutVC and Rot persist — they belong to the head packet)
// and the occupied set. Popping an empty buffer is a
// flow-control violation.
func (b *InputBank) Pop(input, vc int) *flit.Flit {
	idx := input*b.vcs + vc
	fr := &b.front[idx]
	if fr.Inj == FrontNone {
		Violatef("input %d VC %d popped while empty", input, vc)
	}
	f, nf := b.q.Pop(idx)
	b.full[input] &^= 1 << uint(vc)
	if nf != nil {
		fr.Inj, fr.Pkt, fr.Dst, fr.Head = nf.InjectedAt, nf.PacketID, int32(nf.Dst), nf.Head
	} else {
		fr.Inj = FrontNone
		b.held[input] &^= 1 << uint(vc)
	}
	b.occ.Dec(input)
	b.buffered--
	return f
}

// Peek returns the front flit of (input, vc) without removing it, or
// nil when the buffer is empty.
func (b *InputBank) Peek(input, vc int) *flit.Flit { return b.q.Peek(input*b.vcs + vc) }

// Front returns the cached head-of-line state of (input, vc). The
// pointer stays valid for the life of the bank; allocators write OutVC
// and Rot through it.
func (b *InputBank) Front(input, vc int) *Front { return &b.front[input*b.vcs+vc] }

// Fronts returns the front-cache row of one input, for VC scans.
func (b *InputBank) Fronts(input int) []Front {
	i := input * b.vcs
	return b.front[i : i+b.vcs]
}

// HeldVCs returns input's nonempty buffers as a packed word: bit vc is
// raised iff (input, vc) holds a flit.
func (b *InputBank) HeldVCs(input int) uint64 { return b.held[input] }

// Len returns the occupancy of buffer (input, vc).
func (b *InputBank) Len(input, vc int) int { return b.q.Len(input*b.vcs + vc) }

// Count returns the number of flits buffered across all VCs of input.
func (b *InputBank) Count(input int) int { return b.occ.Count(input) }

// Buffered returns the total flits held in the bank, maintained as a
// running counter so InFlight accounting is O(1).
func (b *InputBank) Buffered() int { return b.buffered }

// NextOccupied returns the lowest input holding any flit at or after i,
// or -1.
func (b *InputBank) NextOccupied(i int) int { return b.occ.Next(i) }

// Occupied returns the set of inputs holding any flit, read-only.
func (b *InputBank) Occupied() *arb.BitVec { return &b.occ.bits }
