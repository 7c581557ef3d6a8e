package router

import (
	"math/bits"

	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/router/core"
	"highradix/internal/sim"
)

func init() {
	Register(ArchSharedXpoint, Descriptor{
		Name:      "sharedxp",
		Build:     func(cfg Config) Router { return newSharedXpoint(cfg) },
		GrantNote: "output",
		Validate:  validateXpointDepth,
		Variants: func(radix, vcs int) []Variant {
			return []Variant{{"sharedxp", Config{Arch: ArchSharedXpoint, Radix: radix, VCs: vcs, LocalGroup: variantLocalGroup(radix)}}}
		},
		BenchRadices: []int{64, 128, 256},
	})
}

// sharedXpoint is the Section 5.4 variant of the buffered crossbar: one
// buffer per crosspoint shared by all virtual channels, cutting
// crosspoint storage by a factor of v. It is the buffered crossbar with
// one FIFO per crosspoint (the column stage's slots = 1) and retention
// in the row stage. Because a speculative head flit cannot be allowed to
// wait in the shared buffer for output VC allocation (it would block
// every VC and risk deadlock), a flit sent to the crosspoint is retained
// in the input buffer until the crosspoint returns an ACK; a head flit
// whose output VC is busy when it reaches the buffer front is dropped
// from the crosspoint and NACKed, and the input re-sends it later.
// Everything else — FIFOs, credits, credit buses, output arbiters and
// row wires — is the embedded buffered crossbar's.
type sharedXpoint struct {
	buffered

	ack *sim.Calendar[xpAck] // ackDelay back to the input

	// xpRow[i] marks the outputs whose crosspoint on row i holds flits,
	// raised on every landing and lowered when a grant or NACK empties the
	// crosspoint, and rowAny counts each row's crosspoint flits. They are
	// the row-major view the NACK walk needs, in the order NACKs are
	// observed in, which the column stage's column-major grid cannot give.
	// Kept exact, they also keep the walk off empty rows and crosspoints.
	xpRow  []arb.BitVec
	rowAny core.ActiveSet
	// net is what InFlight adds to the input side and the ejection pipe:
	// +1 for every input copy an ACK pops, -1 for every column grant. A
	// body is ACKed on arrival and then lives only in its crosspoint until
	// its grant moves it to the pipe; a head is granted into the pipe
	// while its input copy waits for the ACK. Either way each flit counts
	// once, and InFlight never walks the grid.
	net int
}

// ackDelay is how long an ACK or NACK takes from the crosspoint back to
// the input that sent the flit.
const ackDelay = 1

type xpAck struct {
	input, vc int
	ack       bool // false = NACK
}

func newSharedXpoint(cfg Config) *sharedXpoint {
	k := cfg.Radix
	r := &sharedXpoint{
		ack:    sim.NewCalendar[xpAck](ackDelay, k),
		xpRow:  arb.MakeBitVecs(k, k),
		rowAny: core.MakeActiveSet(k),
	}
	r.init(cfg, 1, "xp-shared")
	r.row.retain = true
	r.col.granted = r.granted
	return r
}

// InFlight counts every flit once. Flits on the row wires, head flits in
// crosspoint buffers and flits awaiting a NACK keep their retained input
// copy (they are Peeked, not Popped, when sent), so the input side
// already counts them; Out counts the ejection pipe, and net the rest.
func (r *sharedXpoint) InFlight() int {
	return r.In.Buffered() + r.Out.Len() + r.net
}

// NextWake adds the ACKs in flight to the buffered crossbar's answer.
// That answer counts every crosspoint flit where sharedxp would count
// only the body/tail flits, but a head in a crosspoint keeps its input
// copy, so the input side already pins the wake to the next cycle.
func (r *sharedXpoint) NextWake(now int64) int64 {
	return min(r.buffered.NextWake(now), r.ack.NextAt())
}

func (r *sharedXpoint) Step(now int64) {
	r.BeginCycle(now)
	r.ack.PopDue(now, func(as []xpAck) {
		for _, a := range as {
			r.row.awaiting[a.input] &^= 1 << uint(a.vc)
			if a.ack {
				r.In.Pop(a.input, a.vc)
				r.net++
			}
		}
	})
	r.row.wire.PopDue(now, func(fs []*flit.Flit) {
		for _, f := range fs {
			r.col.land(f.Src, f)
			r.xpRow[f.Src].Set(f.Dst)
			r.rowAny.Inc(f.Src)
			if !f.Head {
				// Body and tail flits cannot fail VC allocation; ACK on
				// arrival so the input can proceed.
				r.ack.Schedule(now+ackDelay, xpAck{input: f.Src, vc: f.VC, ack: true})
			}
		}
	})
	r.nackBlockedHeads(now)
	r.col.step(now)
	r.row.step(now)
	// A no-op under IdealCredit, whose credits never enter the buses.
	r.bus.Step(now, func(i, output, vc int) { r.col.returnCredit(now, i, output, vc) })
}

// nackBlockedHeads removes head flits that reached the front of a shared
// crosspoint buffer while their output VC is busy — the flit must not
// wait there (Section 5.4), so it is dropped and the input re-sends.
func (r *sharedXpoint) nackBlockedHeads(now int64) {
	// The walk is row-major (input outer), the order NACK events are
	// observed in.
	for i := r.rowAny.Next(0); i >= 0; i = r.rowAny.Next(i + 1) {
		row := &r.xpRow[i]
		for o := row.Next(0); o >= 0; o = row.Next(o + 1) {
			_, head := r.col.fronts(i*r.cfg.Radix + o)
			blocked := head &^ r.Owner.FreeMask(o)
			if blocked == 0 {
				continue
			}
			c := bits.TrailingZeros64(blocked)
			f := r.col.pop(i, o, c)
			r.left(i, o)
			r.Obs.Emit(now, EvNack, f, i, o, c, "xpoint-vc-busy")
			r.ack.Schedule(now+ackDelay, xpAck{input: i, vc: c, ack: false})
			r.col.free(now, i, o, c)
		}
	}
}

// granted resolves a crosspoint grant for the input: a head's grant is
// its VC allocation, ACKed so the input releases its retained copy; a
// body leaves the crosspoint, its only copy.
func (r *sharedXpoint) granted(now int64, row, o int, f *flit.Flit) {
	r.left(row, o)
	r.net--
	if f.Head {
		r.ack.Schedule(now+ackDelay, xpAck{input: row, vc: f.VC, ack: true})
	}
}

// left updates the row-major view after a flit left crosspoint (i, o).
func (r *sharedXpoint) left(i, o int) {
	r.rowAny.Dec(i)
	if occ, _ := r.col.fronts(i*r.cfg.Radix + o); occ == 0 {
		r.xpRow[i].Clear(o)
	}
}
