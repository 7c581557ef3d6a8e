package router

import (
	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/router/core"
	"highradix/internal/sim"
)

// The fully buffered crossbar (Section 5) and the hierarchical crossbar
// (Section 6) share both ends of their datapath: a row stage that sends
// each input's flits down its row towards a per-VC buffer of the flit's
// column, and a column stage that drains the per-VC buffers in front of
// every output with the paper's local-global scheme. The hierarchical
// crossbar is the buffered one with a subswitch in between: its rows
// feed subswitch inputs, and its column buffers are subswitch outputs.

// columnStage is rows x k per-VC buffers in front of the k outputs and
// the column allocation that drains them. Buffer (row, o) is crosspoint
// (row, o) of the buffered crossbar (rows = k), and in the hierarchical
// crossbar (rows = k/p) the output feeding o of the subswitch in row
// group row — local port s*p + j, which is row*k + o. Either way the
// buffer sits at grid index x = row*k + o, and its VC c at x*v + c of
// both the FIFO bank and the credit ledger.
//
// Output VC allocation takes two stages: a v-to-1 round robin per buffer
// over its eligible VCs, then a local-global arbiter per output over the
// rows offering one. A VC is eligible when its front flit is a body flit
// or a head flit whose output VC is free.
type columnStage struct {
	k, v, st int // radix, VCs, STCycles
	base     *core.Base
	note     string // Note of the grant events

	buf    core.FIFOBank   // [x*v + c]
	credit core.Ledger     // pools [x*v + c], events labelled (row, o, c)
	bus    *core.CreditBus // carries freed slots' credits home; nil returns them at once

	// occ and head pack one bit per VC for each buffer: occ bit c is
	// raised while FIFO (x, c) holds flits, head bit c mirrors whether its
	// front flit is a head flit. Maintained where flits land and leave,
	// they make a buffer's VC request vector word arithmetic instead of a
	// peek at every queue. Requires VCs <= 64.
	occ, head []uint64 // [x]
	// rowBits[o] marks the rows whose buffer for o holds flits, raised and
	// lowered as occ leaves and returns to zero. act weights every output
	// by its buffered flits and flits counts them all, so the scan visits
	// only occupied buffers and InFlight never walks the grid.
	rowBits []arb.BitVec
	act     core.ActiveSet
	flits   int

	vcArb   *arb.RotorBank // [x] over VCs
	outArb  []arb.Arbiter  // [o] over rows
	outFree core.SerializerBank

	cand   *arb.BitVec // sized rows: rows offering a VC to this output
	candVC []int       // [row]: the VC each offers
}

// makeColumnStage returns the stage over rows x cfg.Radix buffers of
// depth flits per VC, its ledger audited under ledgerNote and its grants
// emitted under grantNote, by value for embedding. base must outlive
// the stage. Credits return at once unless the caller points bus at a
// credit bus.
func makeColumnStage(cfg *Config, base *core.Base, rows, depth int, ledgerNote, grantNote string) columnStage {
	k, v := cfg.Radix, cfg.VCs
	s := columnStage{
		k:       k,
		v:       v,
		st:      cfg.STCycles,
		base:    base,
		note:    grantNote,
		buf:     core.MakeFIFOBank(rows*k*v, depth),
		credit:  core.MakeLedger(base.Obs, ledgerNote, rows*k*v, depth),
		occ:     make([]uint64, rows*k),
		head:    make([]uint64, rows*k),
		rowBits: arb.MakeBitVecs(k, rows),
		act:     core.MakeActiveSet(k),
		vcArb:   arb.NewRotorBank(rows*k, v),
		outArb:  make([]arb.Arbiter, k),
		outFree: core.NewSerializerBank(k),
		cand:    arb.NewBitVec(rows),
		candVC:  make([]int, rows),
	}
	for o := range s.outArb {
		s.outArb[o] = arb.NewOutputArbiter(rows, cfg.LocalGroup)
	}
	return s
}

// land pushes f into buffer (row, f.Dst), mirroring it in the masks when
// it becomes its queue's front.
func (s *columnStage) land(row int, f *flit.Flit) {
	o := f.Dst
	x := row*s.k + o
	if s.buf.Push(x*s.v+f.VC, f) == 1 {
		if s.occ[x] == 0 {
			s.rowBits[o].Set(row)
		}
		s.occ[x] |= 1 << uint(f.VC)
		if f.Head {
			s.head[x] |= 1 << uint(f.VC)
		}
	}
	s.act.Inc(o)
	s.flits++
}

// step drains at most one flit per free output into its serializer.
func (s *columnStage) step(now int64) {
	k, v := s.k, s.v
	for o := s.act.Next(0); o >= 0; o = s.act.Next(o + 1) {
		if !s.outFree.Free(o, now) {
			continue
		}
		s.cand.Reset()
		any := false
		// The VC-ownership test depends only on (o, c), so the owner
		// table's free mask is read once per output.
		freeVC := s.base.Owner.FreeMask(o)
		rows := &s.rowBits[o]
		for row := rows.Next(0); row >= 0; row = rows.Next(row + 1) {
			x := row*k + o
			m := s.occ[x] & (^s.head[x] | freeVC)
			if m == 0 {
				continue
			}
			s.cand.Set(row)
			s.candVC[row] = s.vcArb.Arbitrate(x, m)
			any = true
		}
		if !any {
			continue
		}
		row := s.outArb[o].ArbitrateBits(s.cand)
		c := s.candVC[row]
		x := row*k + o
		f, nf := s.buf.Pop(x*v + c)
		switch {
		case nf == nil:
			s.occ[x] &^= 1 << uint(c)
			s.head[x] &^= 1 << uint(c)
			if s.occ[x] == 0 {
				rows.Clear(row)
			}
		case nf.Head:
			s.head[x] |= 1 << uint(c)
		default:
			s.head[x] &^= 1 << uint(c)
		}
		s.act.Dec(o)
		s.flits--
		if f.Head {
			s.base.Owner.Acquire(o, c, f.PacketID)
		}
		s.base.Obs.Emit(Event{Cycle: now, Kind: EvGrant, Flit: f, Input: f.Src, Output: o, VC: c, Note: s.note})
		s.outFree.Reserve(o, now, s.st)
		s.base.Out.Push(now, o, f)
		if s.bus != nil {
			s.bus.Enqueue(row, o, c)
		} else {
			s.returnCredit(now, row, o, c)
		}
	}
}

// returnCredit gives VC c of buffer (row, o) back the credit of a freed
// slot.
func (s *columnStage) returnCredit(now int64, row, o, c int) {
	s.credit.Return(now, (row*s.k+o)*s.v+c, row, o, c)
}

// rowStage is the input side of the same two crossbars: each free input
// forwards at most one flit onto its row wire, towards the buffer of the
// flit's column, subject to that buffer's credits. The input's VC round
// robin is the only allocation — a flit that leaves the input never
// re-arbitrates there, the decoupling that removes head-of-line blocking.
// Output o's column colOf[o] is o itself in the buffered crossbar and
// o's column group in the hierarchical one; VC c of buffer (input,
// column) is credit pool (input*cols + column)*v + c.
type rowStage struct {
	v, st  int // VCs, STCycles
	base   *core.Base
	note   string // Note of the grant events
	colOf  []int32
	cols   int
	credit *core.Ledger
	free   core.SerializerBank       // [input]
	vcArb  *arb.RotorBank            // [input] over VCs
	wire   *sim.Calendar[*flit.Flit] // the row wires, STCycles long
}

// makeRowStage returns the row stage spending credit's pools, by value
// for embedding. base and credit must outlive it.
func makeRowStage(cfg *Config, base *core.Base, colOf []int32, cols int, credit *core.Ledger, note string) rowStage {
	k := cfg.Radix
	return rowStage{
		v:      cfg.VCs,
		st:     cfg.STCycles,
		base:   base,
		note:   note,
		colOf:  colOf,
		cols:   cols,
		credit: credit,
		free:   core.NewSerializerBank(k),
		vcArb:  arb.NewRotorBank(k, cfg.VCs),
		wire:   sim.NewCalendar[*flit.Flit](cfg.STCycles, k),
	}
}

func (s *rowStage) pool(i, col, c int) int { return (i*s.cols+col)*s.v + c }

// step sends at most one flit per free occupied input down its row.
func (s *rowStage) step(now int64) {
	in := &s.base.In
	for i := in.NextOccupied(0); i >= 0; i = in.NextOccupied(i + 1) {
		if !s.free.Free(i, now) {
			continue
		}
		var req uint64
		fronts := in.Fronts(i)
		for c := range fronts {
			fr := &fronts[c]
			if now > fr.Inj && s.credit.Avail(s.pool(i, int(s.colOf[fr.Dst]), c)) {
				req |= 1 << uint(c)
			}
		}
		if req == 0 {
			continue
		}
		c := s.vcArb.Arbitrate(i, req)
		f := in.Pop(i, c)
		col := int(s.colOf[f.Dst])
		s.credit.Spend(now, s.pool(i, col, c), i, col, c)
		s.free.Reserve(i, now, s.st)
		s.base.Obs.Emit(Event{Cycle: now, Kind: EvGrant, Flit: f, Input: i, Output: f.Dst, VC: c, Note: s.note})
		s.wire.Schedule(now+int64(s.st), f)
	}
}
