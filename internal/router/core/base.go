package core

import (
	"highradix/internal/arb"
	"highradix/internal/flit"
)

// Base is the datapath every architecture composes: the input-buffer
// bank, the ejection pipe, the global output-VC owner table and the
// switch ports, wired to one observer hook. Embedding Base gives a
// router the injection side of the router.Router contract (CanAccept,
// Accept, Ejected, the default InFlight and Storage) for free;
// architectures holding intermediate buffers override InFlight to add
// their own running counters, and every Step begins with BeginCycle to
// drain the ejection pipe.
type Base struct {
	Obs   Obs
	In    InputBank
	Out   EjectPipe
	Owner VCOwnerTable

	// The switch ports, one timing rule for every architecture: each
	// input picks one of its VCs per cycle by round robin (Section 4.1),
	// and each input and output port carries one flit every STCycles
	// cycles.
	InVC            *arb.RotorBank // [input] over VCs
	InPort, OutPort SerializerBank // [input], [output]

	storage int // flit slots of every bank made by MakeFIFOBank
}

// MakeBase returns a base for a ports x vcs router with the given input
// buffer depth and ejection (switch traversal) delay, by value for
// embedding. The value holds no pointers into itself, so the embedding
// copy at construction is safe.
func MakeBase(obs Obs, ports, vcs, depth, ejectDelay int) Base {
	b := Base{
		Obs:     obs,
		Out:     MakeEjectPipe(ejectDelay, ports),
		Owner:   MakeVCOwnerTable(ports, vcs),
		InVC:    arb.NewRotorBank(ports, vcs),
		InPort:  NewSerializerBank(ports),
		OutPort: NewSerializerBank(ports),
	}
	b.In = makeInputBank(obs, b.MakeFIFOBank(ports*vcs, depth), ports, vcs)
	return b
}

// Storage returns the flit capacity of every buffer the router built:
// the slots of the FIFO banks made by MakeFIFOBank through this base.
// It is what the area model prices.
func (b *Base) Storage() int { return b.storage }

// CanAccept reports whether input buffer (input, vc) has a free slot —
// the upstream side of credit flow control.
func (b *Base) CanAccept(input, vc int) bool { return b.In.CanAccept(input, vc) }

// Accept places f into input buffer (f.Src, f.VC). The caller must have
// checked CanAccept; violating flow control panics, because it
// indicates a credit-accounting bug, never a recoverable condition.
func (b *Base) Accept(now int64, f *flit.Flit) { b.In.Accept(now, f) }

// Ejected returns the flits that left output ports during the last
// BeginCycle. The slice is reused; callers must not retain it, and per
// the recycling contract the router holds no reference to flits it has
// ejected.
func (b *Base) Ejected() []*flit.Flit { return b.Out.Ejected() }

// InFlight reports the flits inside the input bank and the ejection
// pipe. Architectures with intermediate buffers embed Base and shadow
// this with their own total; all counters are maintained as flits move,
// so the count is O(1) regardless of radix.
func (b *Base) InFlight() int { return b.In.Buffered() + b.Out.Len() }

// BeginCycle opens cycle now: it drains the ejection pipe, releasing
// output-VC ownership at tail flits and emitting EvEject. Every
// architecture's Step starts here.
func (b *Base) BeginCycle(now int64) { b.Out.BeginCycle(now, &b.Owner, b.Obs) }
