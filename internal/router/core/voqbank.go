package core

import (
	"highradix/internal/arb"
	"highradix/internal/flit"
)

// VOQBank is the bank of virtual output queues of a VOQ router: one
// FIFO per (input, output) pair, flat-indexed [input*outputs+output].
// The bank maintains the column bitsets the scheduler's grant phase
// reads — for each output, the inputs whose VOQ toward it holds flits —
// plus the per-VOQ bookkeeping that keeps wormhole packets intact
// across the queue boundary:
//
//   - srcVC locks a VOQ to the input VC currently feeding it a packet.
//     The lock is taken by a head flit and released by the tail, so two
//     packets from different input VCs of the same input can never
//     interleave inside one VOQ — which would deadlock the wormhole at
//     the output side.
//   - outVC records the output virtual channel allocated to the packet
//     currently draining from the VOQ front (-1 before the head flit is
//     scheduled). It persists while the queue runs empty mid-packet,
//     because the packet's remaining flits still own the channel.
//   - needVC mirrors, per output column, the inputs whose VOQ front is
//     an unallocated head flit; when an output has no free VC, the
//     scheduler masks these requesters out with one word operation
//     instead of peeking queues.
type VOQBank struct {
	outputs int
	q       FIFOBank
	srcVC   []int8
	outVC   []int16
	cols    []arb.BitVec // [output] over inputs: VOQ non-empty
	needVC  []arb.BitVec // [output] over inputs: front head flit lacks an output VC
	outAct  ActiveSet    // outputs weighted by buffered flit count
	count   int
}

// MakeVOQBank returns a bank of inputs x outputs queues of the given
// depth, made through base, by value for embedding.
func MakeVOQBank(base *Base, inputs, outputs, depth int) VOQBank {
	b := VOQBank{
		outputs: outputs,
		q:       base.MakeFIFOBank(inputs*outputs, depth),
		srcVC:   make([]int8, inputs*outputs),
		outVC:   make([]int16, inputs*outputs),
		cols:    arb.MakeBitVecs(outputs, inputs),
		needVC:  arb.MakeBitVecs(outputs, inputs),
		outAct:  MakeActiveSet(outputs),
	}
	for i := range b.srcVC {
		b.srcVC[i] = -1
		b.outVC[i] = -1
	}
	return b
}

// Lock returns the input VC currently feeding VOQ (input, output) a
// packet, or -1 when the queue is between packets and a head flit from
// any VC may enter.
func (b *VOQBank) Lock(input, output int) int { return int(b.srcVC[input*b.outputs+output]) }

// Push appends f to VOQ (input, output), taking the source-VC lock at a
// head flit and releasing it at a tail. Pushing beyond the queue depth
// is a flow-control violation (the credit ledger gates admission).
func (b *VOQBank) Push(input, output int, f *flit.Flit) {
	idx := input*b.outputs + output
	n := b.q.Push(idx, f)
	if f.Head {
		b.srcVC[idx] = int8(f.VC)
	}
	if f.Tail {
		b.srcVC[idx] = -1
	}
	if n == 1 {
		b.cols[output].Set(input)
		if f.Head && b.outVC[idx] < 0 {
			b.needVC[output].Set(input)
		}
	}
	b.outAct.Inc(output)
	b.count++
}

// Front returns the front flit of VOQ (input, output); the queue must
// be non-empty (the column bitsets gate the scheduler's reads).
func (b *VOQBank) Front(input, output int) *flit.Flit {
	f := b.q.Peek(input*b.outputs + output)
	if f == nil {
		Violatef("VOQ (%d,%d) peeked while empty", input, output)
	}
	return f
}

// OutVC returns the output VC allocated to the packet at the VOQ front,
// or -1 before its head flit has been scheduled.
func (b *VOQBank) OutVC(input, output int) int { return int(b.outVC[input*b.outputs+output]) }

// SetOutVC records the output VC allocated to the head flit at the VOQ
// front, clearing the input from the column's need-VC set.
func (b *VOQBank) SetOutVC(input, output, vc int) {
	b.outVC[input*b.outputs+output] = int16(vc)
	b.needVC[output].Clear(input)
}

// Pop removes and returns the front flit, releasing the output VC at a
// tail and refreshing the column bitsets from the new front.
func (b *VOQBank) Pop(input, output int) *flit.Flit {
	idx := input*b.outputs + output
	f, nf := b.q.Pop(idx)
	if f.Tail {
		b.outVC[idx] = -1
	}
	if nf != nil {
		if nf.Head && b.outVC[idx] < 0 {
			b.needVC[output].Set(input)
		}
	} else {
		b.cols[output].Clear(input)
		b.needVC[output].Clear(input)
	}
	b.outAct.Dec(output)
	b.count--
	return f
}

// Col returns the output's column bitset: the inputs whose VOQ toward
// it holds flits. Callers must not mutate it.
func (b *VOQBank) Col(output int) *arb.BitVec { return &b.cols[output] }

// NeedVC returns the output's need-VC bitset: the inputs whose VOQ
// front is a head flit with no output VC. Callers must not mutate it.
func (b *VOQBank) NeedVC(output int) *arb.BitVec { return &b.needVC[output] }

// NextActive returns the lowest output with any buffered flit at or
// after o, or -1.
func (b *VOQBank) NextActive(o int) int { return b.outAct.Next(o) }

// Buffered returns the total flits held across all VOQs, maintained as
// a running counter so InFlight accounting is O(1).
func (b *VOQBank) Buffered() int { return b.count }
