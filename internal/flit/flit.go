// Package flit defines the unit of flow control used throughout the
// simulator: packets, the flits they are broken into, and the credits
// exchanged by flow control.
//
// Following the paper (Section 3), a packet is broken into one or more
// flits. The first flit of a packet is the head flit: it carries the
// routing information and triggers the per-packet steps (route
// computation, virtual-channel allocation). The last flit is the tail
// flit: its departure frees the virtual channel. A single-flit packet is
// both head and tail.
package flit

import "fmt"

// Flit is a single flow-control unit moving through a router or network.
// Flits are allocated once at injection and mutated in place as they move
// so that a simulation run does not churn the garbage collector.
type Flit struct {
	// PacketID identifies the packet this flit belongs to. IDs are unique
	// within one simulation run.
	PacketID uint64

	// Seq is the index of this flit within its packet (0 = head).
	Seq int

	// Src is the injection port (single-router simulations) or source
	// terminal (network simulations).
	Src int

	// Dst is the destination output port (single-router simulations) or
	// destination terminal (network simulations).
	Dst int

	// VC is the virtual channel currently occupied by the flit. It is
	// rewritten as the flit is reallocated onto downstream VCs.
	VC int

	// Head marks the first flit of a packet.
	Head bool

	// Tail marks the final flit of a packet. Single-flit packets have
	// both Head and Tail set.
	Tail bool

	// PacketLen is the total number of flits in the packet, carried on
	// every flit so that receivers can account without per-packet state.
	PacketLen int

	// CreatedAt is the cycle the packet was generated at the source.
	// Latency is measured from this point, so source queueing is included
	// (the convention used by the paper's latency/offered-load plots).
	CreatedAt int64

	// InjectedAt is the cycle the flit entered the router input buffer.
	InjectedAt int64

	// Measured marks flits belonging to the labeled measurement sample
	// (paper Section 4.3).
	Measured bool

	// Hops counts router traversals in network simulations.
	Hops int
}

// String renders a compact human-readable description, useful in test
// failures and traces.
func (f *Flit) String() string {
	kind := "body"
	switch {
	case f.Head && f.Tail:
		kind = "single"
	case f.Head:
		kind = "head"
	case f.Tail:
		kind = "tail"
	}
	return fmt.Sprintf("flit{pkt=%d seq=%d %s %d->%d vc=%d}", f.PacketID, f.Seq, kind, f.Src, f.Dst, f.VC)
}

// Credit is a flow-control credit returned upstream when a buffer slot is
// freed. Credits identify the buffer they replenish by output (or
// crosspoint) and virtual channel.
type Credit struct {
	// Input is the input row the credit is returned to.
	Input int
	// Output identifies the crosspoint (or subswitch port) whose buffer
	// freed a slot.
	Output int
	// VC is the virtual channel of the freed slot.
	VC int
}

// reset overwrites every field of f with flit i of a fresh packet, so
// a recycled flit carries no state from its previous life. It writes
// the fields one by one rather than assigning a composite literal,
// which the compiler builds in a temporary and copies whole;
// TestResetWritesEveryField holds it to every field.
func reset(f *Flit, id uint64, i int, src, dst, vc, length int, createdAt int64, measured bool) {
	f.PacketID = id
	f.Seq = i
	f.Src = src
	f.Dst = dst
	f.VC = vc
	f.Head = i == 0
	f.Tail = i == length-1
	f.PacketLen = length
	f.CreatedAt = createdAt
	f.InjectedAt = 0
	f.Measured = measured
	f.Hops = 0
}

// MakePacket allocates the flits of one packet. The head flit carries the
// routing information; every flit carries the measurement label.
func MakePacket(id uint64, src, dst, vc, length int, createdAt int64, measured bool) []*Flit {
	if length < 1 {
		panic("flit: packet length must be >= 1")
	}
	flits := make([]*Flit, length)
	for i := range flits {
		flits[i] = &Flit{}
		reset(flits[i], id, i, src, dst, vc, length, createdAt, measured)
	}
	return flits
}

// FreeList recycles dead flits within one simulation run, keeping the
// flit hot path off the garbage collector: at steady state a run
// allocates no flits at all, because every ejected flit is reborn as a
// later packet.
//
// Recycling contract (see also router.Router.Ejected): a flit may be
// Put back only after it has left the router — i.e. it appeared in an
// Ejected() slice and the caller has finished reading its fields — at
// which point nothing inside the router references it. Putting a flit
// that is still in flight aliases two logical flits onto one struct
// and corrupts the simulation; testbench carries a test asserting this
// never happens.
//
// A FreeList is not safe for concurrent use. Each simulation run owns
// its own, which is exactly what keeps parallel sweeps race-free.
type FreeList struct {
	free    []*Flit
	scratch []*Flit
}

// NewFreeList returns an empty free list.
func NewFreeList() *FreeList { return &FreeList{} }

// Put returns a dead flit to the list for reuse.
func (l *FreeList) Put(f *Flit) { l.free = append(l.free, f) }

// Make returns flit seq of a length-flit packet, reborn from the free
// list when it holds one: the single-flit constructor of a source that
// queues packets as descriptors and builds each flit as it injects it.
func (l *FreeList) Make(id uint64, seq, src, dst, vc, length int, createdAt int64, measured bool) *Flit {
	var f *Flit
	if n := len(l.free); n > 0 {
		f = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		f = &Flit{}
	}
	reset(f, id, seq, src, dst, vc, length, createdAt, measured)
	return f
}

// MakePacket is the recycling counterpart of the package-level
// MakePacket: flits come from the free list when available, and the
// returned slice is internal scratch, valid only until the next
// MakePacket call (callers hand the flits off to queues immediately).
func (l *FreeList) MakePacket(id uint64, src, dst, vc, length int, createdAt int64, measured bool) []*Flit {
	if length < 1 {
		panic("flit: packet length must be >= 1")
	}
	if cap(l.scratch) < length {
		l.scratch = make([]*Flit, length)
	}
	l.scratch = l.scratch[:length]
	for i := range l.scratch {
		l.scratch[i] = l.Make(id, i, src, dst, vc, length, createdAt, measured)
	}
	return l.scratch
}
