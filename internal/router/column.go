package router

import (
	"math/bits"

	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/router/core"
	"highradix/internal/sim"
)

// The fully buffered crossbar (Section 5), its shared-buffer variant
// (Section 5.4) and the hierarchical crossbar (Section 6) share both ends
// of their datapath: a row stage that sends each input's flits down its
// row towards a buffer of the flit's column, and a column stage that
// drains the buffers in front of every output with the paper's
// local-global scheme. The shared-buffer crossbar is the buffered one
// with one FIFO per crosspoint instead of one per VC, plus retention at
// the input; the hierarchical crossbar is the buffered one with a
// subswitch in between: its rows feed subswitch inputs, and its column
// buffers are subswitch outputs. The column stage's buffers are a grid,
// and the grid has a fourth user: the VOQ router (voq.go), whose
// virtual output queues are the same k x k buffers of one shared FIFO,
// drained by its iSLIP scheduler instead of a column allocator.
//
// A buffer holds slots FIFOs: v, one per VC, or 1 when all VCs share
// one. VC c's FIFO is slot(c) = c & vcBits, with vcBits = -min(slots-1,
// 1): -1 in the first case and 0 in the second — a mask, not a run-time
// modulus, on the hot path.

// grid is rows x k buffers of slots FIFOs each, with their credits and
// the occupancy mirrors an allocator reads: the storage half of the
// column stage. Buffer (row, o) is crosspoint (row, o) of the buffered
// crossbars (rows = k), and in the hierarchical crossbar (rows = k/p)
// the output feeding o of the subswitch in row group row — local port
// s*p + j, which is row*k + o. In the VOQ router (rows = k, slots = 1)
// it is the virtual output queue of input row towards output o. Either
// way the buffer sits at grid index x = row*k + o, and VC c's FIFO at
// x*slots + slot(c) of both the FIFO bank and the credit ledger.
type grid struct {
	k      int // radix
	slots  int // FIFOs per buffer: v, or 1 when the VCs share one
	vcBits int // slot(c) = c & vcBits

	buf    core.FIFOBank // [x*slots + slot(c)]
	credit core.Ledger   // pools [x*slots + slot(c)]

	// The mask mirrors each buffer's FIFO fronts in two words of one bit
	// per VC, read by fronts and written by refront: occ bit c is raised while a FIFO of the buffer has
	// a front flit on VC c, head bit c mirrors whether that front flit is
	// a head flit. Per VC that is "FIFO (x, c) holds flits"; in a shared
	// FIFO the bits follow the VC of its one front flit, so the words hold
	// at most one bit. Maintained where flits land and leave, they make a
	// buffer's VC request vector word arithmetic instead of a peek at
	// every queue. Up to 32 VCs both words pack into one, head in the
	// high half: the slab is k^2-sized, and at radix 256 its width is a
	// measurable share of the grid's cache footprint. Above 32 VCs (wide)
	// each word takes its own slot. Requires VCs <= 64.
	mask []uint64 // [x], or [2x] and [2x+1] when wide
	wide bool
	// rowBits[o] marks the rows whose buffer for o holds flits, raised and
	// lowered as occ leaves and returns to zero. act weights every output
	// by its buffered flits and flits counts them all, so a scan visits
	// only occupied buffers and InFlight never walks the grid.
	rowBits []arb.BitVec
	act     core.ActiveSet
	flits   int
}

// makeGrid returns rows x cfg.Radix buffers of slots FIFOs of depth
// flits, made through base and their ledger audited under ledgerNote,
// by value for embedding.
func makeGrid(cfg *Config, base *core.Base, rows, slots, depth int, ledgerNote string) grid {
	k, v := cfg.Radix, cfg.VCs
	return grid{
		k:       k,
		slots:   slots,
		vcBits:  -min(slots-1, 1),
		buf:     base.MakeFIFOBank(rows*k*slots, depth),
		credit:  core.MakeLedger(base.Obs, ledgerNote, rows*k*slots, depth),
		mask:    make([]uint64, rows*k*((v+31)/32)),
		wide:    v > 32,
		rowBits: arb.MakeBitVecs(k, rows),
		act:     core.MakeActiveSet(k),
	}
}

// land pushes f into buffer (row, f.Dst), mirroring it in the masks when
// it becomes its queue's front.
func (g *grid) land(row int, f *flit.Flit) {
	o := f.Dst
	x := row*g.k + o
	if g.buf.Push(x*g.slots+f.VC&g.vcBits, f) == 1 {
		g.rowBits[o].Set(row)
		g.refront(x, f.VC, f)
	}
	g.act.Inc(o)
	g.flits++
}

// fronts returns buffer x's occ and head words.
func (g *grid) fronts(x int) (occ, head uint64) {
	if g.wide {
		return g.mask[2*x], g.mask[2*x+1]
	}
	return g.mask[x] & (1<<32 - 1), g.mask[x] >> 32
}

// refront moves buffer x's words from the front flit on VC c to f, the
// front that replaces it (nil for none), and reports whether the buffer
// is left empty. A landing into an empty FIFO passes f's own VC, whose
// bits are clear. A shared FIFO's words are its one front's, so they are
// stored without reading the k^2-sized slab.
func (g *grid) refront(x, c int, f *flit.Flit) (empty bool) {
	var occ, head uint64
	if g.vcBits != 0 {
		occ, head = g.fronts(x)
		occ &^= 1 << uint(c)
		head &^= 1 << uint(c)
	}
	if f != nil {
		occ |= 1 << uint(f.VC)
		if f.Head {
			head |= 1 << uint(f.VC)
		}
	}
	if g.wide {
		g.mask[2*x], g.mask[2*x+1] = occ, head
	} else {
		g.mask[x] = occ | head<<32
	}
	return occ == 0
}

// pop removes the front flit of VC c's FIFO in buffer (row, o), moving
// the masks to the flit behind it.
func (g *grid) pop(row, o, c int) *flit.Flit {
	x := row*g.k + o
	f, nf := g.buf.Pop(x*g.slots + c&g.vcBits)
	if g.refront(x, c, nf) {
		g.rowBits[o].Clear(row)
	}
	g.act.Dec(o)
	g.flits--
	return f
}

// returnCredit gives VC c's FIFO of buffer (row, o) back the credit of a
// freed slot, labelled (row, o, slot(c)).
func (g *grid) returnCredit(now int64, row, o, c int) {
	slot := c & g.vcBits
	g.credit.Return(now, (row*g.k+o)*g.slots+slot, row, o, slot)
}

// columnStage is the column allocation that drains a grid into the k
// outputs.
//
// Output VC allocation takes two stages: a v-to-1 round robin per buffer
// over its eligible VCs, then a local-global arbiter per output over the
// rows offering one. A VC is eligible when its front flit is a body flit
// or a head flit whose output VC is free. A body flit at a front is
// always owned by its packet: it entered its FIFO behind its head, and
// a shared FIFO takes a body only after its head was granted.
type columnStage struct {
	grid
	st   int // STCycles
	base *core.Base
	note string // Note of the grant events

	bus *core.CreditBus // carries freed slots' credits home; nil returns them at once
	// granted, when set, hears of every grant once its flit has left the
	// buffer and before its credit is freed.
	granted func(now int64, row, o int, f *flit.Flit)

	vcArb  *arb.RotorBank // [x] over VCs; nil for a shared FIFO, whose front is the one candidate
	outArb []arb.Arbiter  // [o] over rows

	cand   *arb.BitVec // sized rows: rows offering a VC to this output
	candVC []int       // [row]: the VC each offers
}

// makeColumnStage returns the stage over a grid of rows x cfg.Radix
// buffers of slots FIFOs of depth flits, its ledger audited under
// ledgerNote and its grants emitted under grantNote, by value for
// embedding. base must outlive the stage. Credits return at once unless
// the caller points bus at a credit bus.
func makeColumnStage(cfg *Config, base *core.Base, rows, slots, depth int, ledgerNote, grantNote string) columnStage {
	k := cfg.Radix
	s := columnStage{
		grid:   makeGrid(cfg, base, rows, slots, depth, ledgerNote),
		st:     cfg.STCycles,
		base:   base,
		note:   grantNote,
		outArb: make([]arb.Arbiter, k),
		cand:   arb.NewBitVec(rows),
		candVC: make([]int, rows),
	}
	if slots > 1 {
		s.vcArb = arb.NewRotorBank(rows*k, cfg.VCs)
	}
	for o := range s.outArb {
		s.outArb[o] = arb.NewOutputArbiter(rows, cfg.LocalGroup)
	}
	return s
}

// step drains at most one flit per free output into its serializer
// (core.Base.OutPort).
func (s *columnStage) step(now int64) {
	outPort := s.base.OutPort
	for o := s.act.Next(0); o >= 0; o = s.act.Next(o + 1) {
		if !outPort.Free(o, now) {
			continue
		}
		s.cand.Reset()
		// The VC-ownership test depends only on (o, c), so the owner
		// table's free mask is read once per output.
		freeVC := s.base.Owner.FreeMask(o)
		rows := &s.rowBits[o]
		for row := rows.Next(0); row >= 0; row = rows.Next(row + 1) {
			x := row*s.k + o
			occ, head := s.fronts(x)
			req := occ & (^head | freeVC)
			if req == 0 {
				continue
			}
			s.cand.Set(row)
			if s.vcArb == nil {
				s.candVC[row] = bits.TrailingZeros64(req)
			} else {
				s.candVC[row] = s.vcArb.Arbitrate(x, req)
			}
		}
		row := s.outArb[o].ArbitrateBits(s.cand)
		if row < 0 {
			continue
		}
		c := s.candVC[row]
		f := s.pop(row, o, c)
		if f.Head {
			s.base.Owner.Acquire(o, c, f.PacketID)
		}
		s.base.Obs.Emit(now, EvGrant, f, f.Src, o, c, s.note)
		outPort.Reserve(o, now, s.st)
		s.base.Out.Push(now, o, f)
		if s.granted != nil {
			s.granted(now, row, o, f)
		}
		s.free(now, row, o, c)
	}
}

// free sends home the credit of the slot a flit of VC c left in buffer
// (row, o): over the credit bus, or at once without one.
func (s *columnStage) free(now int64, row, o, c int) {
	if s.bus != nil {
		s.bus.Enqueue(row, o, c&s.vcBits)
	} else {
		s.returnCredit(now, row, o, c)
	}
}

// rowStage is the input side of the same crossbars: each free input
// (core.Base.InPort) forwards at most one flit onto its row wire, towards
// the buffer of the flit's column, subject to that buffer's credits. The
// input's VC round robin (core.Base.InVC) is the only allocation — a
// flit that leaves the input never re-arbitrates there, the decoupling
// that removes head-of-line blocking.
// Output o's column colOf[o] is o itself in the buffered crossbars and
// o's column group in the hierarchical one; VC c of buffer (input,
// column) is credit pool (input*cols + column)*slots + slot(c).
//
// With retention on a sent flit stays in its input buffer — Peeked, not
// Popped — and its VC asks for nothing more until the owner clears the
// VC's awaiting bit on the ACK or NACK.
type rowStage struct {
	st       int // STCycles
	slots    int // FIFOs per buffer, as the column stage's
	vcBits   int // slot(c) = c & vcBits
	base     *core.Base
	note     string // Note of the grant events
	colOf    []int32
	cols     int
	credit   *core.Ledger
	wire     *sim.Calendar[*flit.Flit] // the row wires, STCycles long
	retain   bool
	awaiting []uint64 // [input] bit c: sent and retained
}

// makeRowStage returns the row stage spending credit's pools of slots
// FIFOs per buffer, by value for embedding. base and credit must outlive
// it.
func makeRowStage(cfg *Config, base *core.Base, colOf []int32, cols, slots int, credit *core.Ledger, note string) rowStage {
	k := cfg.Radix
	return rowStage{
		st:       cfg.STCycles,
		slots:    slots,
		vcBits:   -min(slots-1, 1),
		base:     base,
		note:     note,
		colOf:    colOf,
		cols:     cols,
		credit:   credit,
		wire:     sim.NewCalendar[*flit.Flit](cfg.STCycles, k),
		awaiting: make([]uint64, k),
	}
}

func (s *rowStage) pool(i, col, c int) int { return (i*s.cols+col)*s.slots + c&s.vcBits }

// step sends at most one flit per free occupied input down its row.
func (s *rowStage) step(now int64) {
	in := &s.base.In
	// The VC scan is the stage's inner loop: its loop invariants are
	// read once.
	credit, colOf, slots, vcBits, inPort, inVC := s.credit, s.colOf, s.slots, s.vcBits, s.base.InPort, s.base.InVC
	for i := in.NextOccupied(0); i >= 0; i = in.NextOccupied(i + 1) {
		if !inPort.Free(i, now) {
			continue
		}
		var req uint64
		skip, row := s.awaiting[i], i*s.cols
		fronts := in.Fronts(i)
		for c := range fronts {
			fr := &fronts[c]
			if skip>>uint(c)&1 == 0 && now > fr.Inj && credit.Avail((row+int(colOf[fr.Dst]))*slots+c&vcBits) {
				req |= 1 << uint(c)
			}
		}
		if req == 0 {
			continue
		}
		c := inVC.Arbitrate(i, req)
		f := in.Peek(i, c)
		if s.retain {
			s.awaiting[i] |= 1 << uint(c)
		} else {
			in.Pop(i, c)
		}
		col := int(s.colOf[f.Dst])
		s.credit.Spend(now, s.pool(i, col, c), i, col, c&s.vcBits)
		inPort.Reserve(i, now, s.st)
		s.base.Obs.Emit(now, EvGrant, f, i, f.Dst, c, s.note)
		s.wire.Schedule(now+int64(s.st), f)
	}
}
