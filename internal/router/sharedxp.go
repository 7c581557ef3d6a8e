package router

import (
	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/router/core"
	"highradix/internal/sim"
)

func init() {
	Register(ArchSharedXpoint, Descriptor{
		Name:      "sharedxp",
		Summary:   "buffered crossbar with one shared buffer per crosspoint and ACK/NACK retention",
		Section:   "Section 5.4",
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
// crosspoint storage by a factor of v. Because a speculative head flit
// cannot be allowed to wait in the shared buffer for output VC
// allocation (it would block every VC and risk deadlock), a flit sent
// to the crosspoint is retained in the input buffer until the
// crosspoint returns an ACK; a head flit whose output VC is busy when
// it reaches the buffer front is dropped from the crosspoint and NACKed,
// and the input re-sends it later.
type sharedXpoint struct {
	cfg Config
	core.Base

	awaiting []uint64 // [input] bit vc: sent speculatively, ACK/NACK pending
	inFree   core.SerializerBank
	inputArb *arb.RotorBank // per input, over VCs

	credit  core.Ledger   // shared-buffer pools flat [input*k+output]
	xp      core.FIFOBank // flat [input*k+output] shared FIFO, same layout as the ledger
	outLG   []arb.Arbiter
	outFree core.SerializerBank

	toXp *sim.Calendar[*flit.Flit] // row wires, STCycles long
	ack  *sim.Calendar[xpAck]      // ackDelay back to the input
	bus  core.CreditBus            // one bus per input row; idle under IdealCredit

	// The crosspoint grid is walked in two orders — row-major by the
	// NACK scan (input outer) and column-major by the output stage
	// (output outer) — so occupancy is tracked in both views, as bit
	// rows raised and lowered when a crosspoint FIFO leaves and returns
	// to empty: xpRow[i] marks outputs with flits queued from input i,
	// xpCol[o] marks inputs with flits queued for output o.
	// rowAny/outAct summarize which rows/columns are nonempty at all,
	// weighted by flit count.
	xpRow  []arb.BitVec
	rowAny core.ActiveSet
	xpCol  []arb.BitVec
	outAct core.ActiveSet
	// xpBody counts body and tail flits inside crosspoint buffers —
	// the flits that live only there (heads are retained input-side
	// until ACKed). Maintained as flits land and drain so InFlight
	// never walks the grid.
	xpBody int
	// acking counts the ACKs in flight. Each belongs to a flit that has
	// moved on (a body into its crosspoint buffer, a head into the
	// ejection pipe) while its input copy waits for the ACK to pop it, so
	// InFlight would count it twice without subtracting acking.
	acking int

	candidates *arb.BitVec // sized k
}

// ackDelay is how long an ACK or NACK takes from the crosspoint back to
// the input that sent the flit.
const ackDelay = 1

type xpAck struct {
	input, vc int
	ack       bool // false = NACK
}

func newSharedXpoint(cfg Config) *sharedXpoint {
	k, v := cfg.Radix, cfg.VCs
	obs := core.Obs{O: cfg.Observer}
	r := &sharedXpoint{
		cfg:        cfg,
		Base:       core.MakeBase(obs, k, v, cfg.InputBufDepth, cfg.STCycles),
		awaiting:   make([]uint64, k),
		inFree:     core.NewSerializerBank(k),
		inputArb:   arb.NewRotorBank(k, v),
		credit:     core.MakeLedger(obs, "xp-shared", k*k, cfg.XpointBufDepth),
		xp:         core.MakeFIFOBank(k*k, cfg.XpointBufDepth),
		outLG:      make([]arb.Arbiter, k),
		outFree:    core.NewSerializerBank(k),
		toXp:       sim.NewCalendar[*flit.Flit](cfg.STCycles, k),
		ack:        sim.NewCalendar[xpAck](ackDelay, k),
		bus:        core.MakeCreditBus(k, k, cfg.LocalGroup, cfg.XpointBufDepth),
		xpRow:      arb.MakeBitVecs(k, k),
		rowAny:     core.MakeActiveSet(k),
		xpCol:      arb.MakeBitVecs(k, k),
		outAct:     core.MakeActiveSet(k),
		candidates: arb.NewBitVec(k),
	}
	for i := 0; i < k; i++ {
		r.outLG[i] = arb.NewOutputArbiter(k, cfg.LocalGroup)
	}
	return r
}

// xpPop removes the front flit of crosspoint (i, o), keeping the four
// crosspoint-occupancy views in sync.
func (r *sharedXpoint) xpPop(i, o int) *flit.Flit {
	f, nf := r.xp.Pop(i*r.cfg.Radix + o)
	if nf == nil {
		r.xpRow[i].Clear(o)
		r.xpCol[o].Clear(i)
	}
	r.rowAny.Dec(i)
	r.outAct.Dec(o)
	return f
}

func (r *sharedXpoint) Config() Config { return r.cfg }

// xpPool flattens a shared crosspoint buffer's (input, output)
// coordinates into its credit-ledger pool index.
func (r *sharedXpoint) xpPool(i, o int) int { return i*r.cfg.Radix + o }

// InFlight counts every flit once. Flits on the row wires, head flits in
// crosspoint buffers and flits awaiting a NACK keep their retained input
// copy (they are Peeked, not Popped, when sent), so the input side
// already counts them; xpBody adds the body/tail flits in crosspoint
// buffers and Out the flits in the ejection pipe, and acking takes back
// the ones of those whose input copy an ACK in flight has yet to pop.
func (r *sharedXpoint) InFlight() int {
	return r.In.Buffered() + r.Out.Len() + r.xpBody - r.acking
}

// NextWake adds the crosspoint side to the base answer: the row wires,
// the ACKs in flight, the body/tail flits that live only crosspoint-side
// and the credit buses. Every other crosspoint flit has a retained input
// copy, which In.Buffered() already sees.
func (r *sharedXpoint) NextWake(now int64) int64 {
	if r.In.Buffered() > 0 || r.xpBody > 0 || r.bus.Pending() > 0 {
		return now + 1
	}
	return min(r.Out.NextWake(), r.toXp.NextAt(), r.ack.NextAt())
}

func (r *sharedXpoint) Step(now int64) {
	r.BeginCycle(now)
	r.ack.PopDue(now, func(as []xpAck) {
		for _, a := range as {
			r.awaiting[a.input] &^= 1 << uint(a.vc)
			if a.ack {
				r.In.Pop(a.input, a.vc)
				r.acking--
			}
		}
	})
	r.toXp.PopDue(now, func(fs []*flit.Flit) {
		for _, f := range fs {
			if r.xp.Push(f.Src*r.cfg.Radix+f.Dst, f) == 1 {
				r.xpRow[f.Src].Set(f.Dst)
				r.xpCol[f.Dst].Set(f.Src)
			}
			r.rowAny.Inc(f.Src)
			r.outAct.Inc(f.Dst)
			if !f.Head {
				// Body and tail flits cannot fail VC allocation; ACK on
				// arrival so the input can proceed.
				r.xpBody++
				r.acking++
				r.ack.Schedule(now+ackDelay, xpAck{input: f.Src, vc: f.VC, ack: true})
			}
		}
	})
	r.nackBlockedHeads(now)
	r.outputStage(now)
	r.inputStage(now)
	// A no-op under IdealCredit, whose credits never enter the buses.
	r.bus.Step(now, func(i, output, vc int) {
		r.credit.Return(now, r.xpPool(i, output), i, output, vc)
	})
}

// nackBlockedHeads removes head flits that reached the front of a shared
// crosspoint buffer while their output VC is busy — the flit must not
// wait there (Section 5.4), so it is dropped and the input re-sends.
func (r *sharedXpoint) nackBlockedHeads(now int64) {
	// The row-major (input-outer) walk matches the original dense scan so
	// NACK events keep their observed order.
	for i := r.rowAny.Next(0); i >= 0; i = r.rowAny.Next(i + 1) {
		row := &r.xpRow[i]
		for o := row.Next(0); o >= 0; o = row.Next(o + 1) {
			f := r.xp.Peek(i*r.cfg.Radix + o)
			if f.Head && !r.Owner.FreeVC(o, f.VC) {
				r.xpPop(i, o)
				r.Obs.Emit(Event{Cycle: now, Kind: EvNack, Flit: f, Input: i, Output: o, VC: f.VC, Note: "xpoint-vc-busy"})
				r.ack.Schedule(now+ackDelay, xpAck{input: i, vc: f.VC, ack: false})
				r.returnCredit(now, i, o)
			}
		}
	}
}

func (r *sharedXpoint) returnCredit(now int64, i, o int) {
	if r.cfg.IdealCredit {
		r.credit.Return(now, r.xpPool(i, o), i, o, 0)
	} else {
		r.bus.Enqueue(i, o, 0)
	}
}

func (r *sharedXpoint) outputStage(now int64) {
	for o := r.outAct.Next(0); o >= 0; o = r.outAct.Next(o + 1) {
		if !r.outFree.Free(o, now) {
			continue
		}
		r.candidates.Reset()
		any := false
		col := &r.xpCol[o]
		for i := col.Next(0); i >= 0; i = col.Next(i + 1) {
			f := r.xp.Peek(i*r.cfg.Radix + o)
			if !f.Head && r.Owner.OwnedBy(o, f.VC, f.PacketID) ||
				f.Head && r.Owner.FreeVC(o, f.VC) {
				r.candidates.Set(i)
				any = true
			}
		}
		if !any {
			continue
		}
		win := r.outLG[o].ArbitrateBits(r.candidates)
		f := r.xpPop(win, o)
		r.Obs.Emit(Event{Cycle: now, Kind: EvGrant, Flit: f, Input: win, Output: o, VC: f.VC, Note: "output"})
		if f.Head {
			r.Owner.Acquire(o, f.VC, f.PacketID)
			// Successful VC allocation: ACK so the input releases its
			// retained copy.
			r.acking++
			r.ack.Schedule(now+ackDelay, xpAck{input: win, vc: f.VC, ack: true})
		} else {
			r.xpBody--
		}
		r.outFree.Reserve(o, now, r.cfg.STCycles)
		r.Out.Push(now, o, f)
		r.returnCredit(now, win, o)
	}
}

func (r *sharedXpoint) inputStage(now int64) {
	v := r.cfg.VCs
	for i := r.In.NextOccupied(0); i >= 0; i = r.In.NextOccupied(i + 1) {
		if !r.inFree.Free(i, now) {
			continue
		}
		var req uint64
		fronts := r.In.Fronts(i)
		for c := 0; c < v; c++ {
			fr := &fronts[c]
			if r.awaiting[i]>>uint(c)&1 == 0 && now > fr.Inj && r.credit.Avail(r.xpPool(i, int(fr.Dst))) {
				req |= 1 << uint(c)
			}
		}
		if req == 0 {
			continue
		}
		c := r.inputArb.Arbitrate(i, req)
		f := r.In.Peek(i, c)
		r.credit.Spend(now, r.xpPool(i, f.Dst), i, f.Dst, 0)
		r.inFree.Reserve(i, now, r.cfg.STCycles)
		r.Obs.Emit(Event{Cycle: now, Kind: EvGrant, Flit: f, Input: i, Output: f.Dst, VC: c, Note: "input-row"})
		// Retain the flit in the input buffer until the crosspoint
		// ACKs: speculatively for heads (the ACK is the VC allocation),
		// and to keep the same flit from being re-sent for bodies
		// (their ACK is immediate on arrival).
		r.awaiting[i] |= 1 << uint(c)
		r.toXp.Schedule(now+int64(r.cfg.STCycles), f)
	}
}
