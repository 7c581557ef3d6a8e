package core

import "highradix/internal/arb"

// CreditBus models the shared credit-return buses of Section 5.2, one
// per input row: all crosspoints on a row share a single bus carrying
// one credit per cycle back to the input. Crosspoints with pending
// credits arbitrate for their row's bus with the same local-global
// scheme as the output arbiters; a losing crosspoint simply
// re-arbitrates on a later cycle, which the paper shows (and our
// ablation confirms) costs almost nothing because each flit occupies
// the input row for several cycles.
//
// All rows live in one bank. Pending credits sit in per-crosspoint byte
// rings: ring x = row*k+output occupies vcs[x*ringCap : (x+1)*ringCap]
// and holds queued VC numbers in FIFO order, with its head cursor and
// length in ring[x]. A crosspoint can never hold more outstanding
// credits than its buffer holds flits, so the caller sizes ringCap from
// its buffer-depth configuration and overflow indicates an accounting
// bug. A granted credit spends one cycle on its row's return wire
// (wire[row]; a row grants one credit per Step and delivers it at the
// next, so one slot per row is the whole wire). The busy set holds the
// rows with a credit queued or on the wire, so Step costs nothing for
// the idle majority of rows at high radix.
type CreditBus struct {
	k       int
	ringCap int
	vcs     []uint8
	ring    []busRing
	req     []arb.BitVec  // [row] over outputs: crosspoints with queued credits
	busArb  []arb.Arbiter // [row]
	wire    []busCredit   // [row]
	busy    arb.BitVec
	pending int
}

type busRing struct{ head, size uint16 }

// busCredit is a row's wire slot; at is 0 while the wire is empty
// (a credit granted at cycle now >= 0 arrives at now+1 >= 1).
type busCredit struct {
	at     int64
	output int32
	vc     int32
}

// MakeCreditBus builds the buses of rows input rows serving k
// crosspoints each, with local-global arbitration groups of size m and
// a one-cycle return wire. perXpCap bounds the credits one crosspoint
// can have queued at once — the crosspoint's buffer depth in flits,
// from the router's Config.
func MakeCreditBus(rows, k, m, perXpCap int) CreditBus {
	if perXpCap < 1 || perXpCap > MaxFIFODepth {
		Violatef("credit bus per-crosspoint capacity %d outside [1, %d]", perXpCap, MaxFIFODepth)
	}
	b := CreditBus{
		k:       k,
		ringCap: perXpCap,
		vcs:     make([]uint8, rows*k*perXpCap),
		ring:    make([]busRing, rows*k),
		req:     arb.MakeBitVecs(rows, k),
		busArb:  make([]arb.Arbiter, rows),
		wire:    make([]busCredit, rows),
		busy:    arb.MakeBitVec(rows),
	}
	for i := range b.busArb {
		b.busArb[i] = arb.NewOutputArbiter(k, m)
	}
	return b
}

// Enqueue records that crosspoint (row, output) freed a slot of virtual
// channel vc and now needs the row's bus.
func (b *CreditBus) Enqueue(row, output, vc int) {
	x := row*b.k + output
	r := &b.ring[x]
	if int(r.size) >= b.ringCap {
		Violatef("credit bus ring (%d,%d) overflow (credit accounting bug)", row, output)
	}
	idx := int(r.head) + int(r.size)
	if idx >= b.ringCap {
		idx -= b.ringCap
	}
	b.vcs[x*b.ringCap+idx] = uint8(vc)
	r.size++
	b.req[row].Set(output)
	b.busy.Set(row)
	b.pending++
}

// Step advances every busy row by one cycle, in ascending row order: a
// credit whose wire delay has elapsed is handed to deliver(row, output,
// vc), then one queued credit wins the row's bus and takes the wire.
func (b *CreditBus) Step(now int64, deliver func(row, output, vc int)) {
	for row := b.busy.Next(0); row >= 0; row = b.busy.Next(row + 1) {
		w := &b.wire[row]
		if w.at != 0 && w.at <= now {
			w.at = 0
			b.pending--
			deliver(row, int(w.output), int(w.vc))
		}
		win := b.busArb[row].ArbitrateBits(&b.req[row])
		if win < 0 {
			// Nothing queued: the row stays busy only while its wire is.
			if w.at == 0 {
				b.busy.Clear(row)
			}
			continue
		}
		x := row*b.k + win
		r := &b.ring[x]
		vc := b.vcs[x*b.ringCap+int(r.head)]
		r.head++
		if int(r.head) == b.ringCap {
			r.head = 0
		}
		r.size--
		if r.size == 0 {
			b.req[row].Clear(win)
		}
		*w = busCredit{at: now + 1, output: int32(win), vc: int32(vc)}
	}
}

// Pending reports the credits held by all rows, queued or on a return
// wire. While it is nonzero the owning router is not quiescent and must
// step every cycle: a credit resolves within two cycles (one
// arbitration, one wire hop).
func (b *CreditBus) Pending() int { return b.pending }
