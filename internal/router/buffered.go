package router

import (
	"fmt"

	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/router/core"
	"highradix/internal/sim"
)

func init() {
	Register(ArchBuffered, Descriptor{
		Name:    "buffered",
		Summary: "fully buffered crossbar, per-input-VC crosspoint buffers with credit flow control",
		Section: "Section 5 (Figure 12(b))",
		Build:   func(cfg Config) Router { return newBuffered(cfg) },
		Traits:  Traits{ExactInFlight: true, TerminalGrantNote: "output"},
		Validate: func(c Config) []error {
			if c.XpointBufDepth < 1 {
				return []error{fmt.Errorf("crosspoint buffer depth %d < 1", c.XpointBufDepth)}
			}
			return nil
		},
		Variants: func(radix, vcs int) []Variant {
			lg := variantLocalGroup(radix)
			base := Config{Arch: ArchBuffered, Radix: radix, VCs: vcs, LocalGroup: lg}
			ideal := base
			ideal.IdealCredit = true
			return []Variant{
				{"buffered", base},
				{"buffered-ideal", ideal},
			}
		},
		BenchRadices: []int{64, 128, 256},
	})
}

// buffered is the fully buffered crossbar of Section 5 (Figure 12(b)):
// every crosspoint holds a buffer per input virtual channel, so the
// crosspoint buffers act as per-output extensions of the input buffers
// and no VC allocation is needed to reach a crosspoint. Input and
// output switch allocation are completely decoupled: a flit that wins
// input arbitration is immediately forwarded to the crosspoint buffer
// for its output and never re-arbitrates at the input. Output VC
// allocation happens in two stages at the output: a v-to-1 arbiter
// selects a VC at each crosspoint and a k-to-1 local-global arbiter
// selects a crosspoint.
//
// Crosspoint buffers never overflow thanks to credit-based flow control
// (Section 5.2); credits return over a shared per-row credit bus unless
// Config.IdealCredit asks for the idealized immediate return.
type buffered struct {
	cfg Config
	core.Base

	inFree   core.SerializerBank
	inputArb *arb.RotorBank // per input, over VCs

	credit  core.Ledger    // pools flat [(input*k+output)*v+vc]
	xp      core.FIFOBank  // flat [(input*k+output)*v+vc], same layout as the ledger
	xpArb   *arb.RotorBank // per crosspoint [input*k+output] over VCs
	outLG   []arb.Arbiter  // per output over crosspoints (inputs)
	outFree core.SerializerBank

	toXp *sim.Calendar[*flit.Flit] // row wires, STCycles long
	bus  core.CreditBus            // one bus per input row; idle under IdealCredit

	// xpCol[o] is the bit row of crosspoints (inputs) of output column o
	// holding flits, raised and lowered as a crosspoint's xpOcc word
	// leaves and returns to zero; outAct summarizes which outputs have
	// any crosspoint occupancy at all, weighted by flit count. The
	// output stage walks only occupied crosspoints instead of the full
	// k x k grid every cycle. The input-side set lives in the input bank.
	xpCol  []arb.BitVec
	outAct core.ActiveSet
	// xpFlits counts flits across all crosspoint buffers, maintained as
	// flits land and drain so InFlight never walks the grid.
	xpFlits int
	// xpOcc and xpHead pack one bit per VC for each crosspoint: xpOcc
	// bit c is raised while queue (i,o,c) holds flits, and xpHead bit c
	// mirrors whether that queue's front flit is a head flit. Both are
	// maintained where flits land (toXp drain) and leave (output grant),
	// so the output scan derives a crosspoint's whole VC request vector
	// with word arithmetic instead of peeking every queue. Requires
	// VCs <= 64 (the paper's routers use at most a handful).
	xpOcc  []uint64 // flat [input*k+output]
	xpHead []uint64 // flat [input*k+output]

	candidates *arb.BitVec // sized k: output-stage crosspoint candidates
	chosenVC   []int
}

func newBuffered(cfg Config) *buffered {
	k, v := cfg.Radix, cfg.VCs
	obs := core.Obs{O: cfg.Observer}
	r := &buffered{
		cfg:        cfg,
		Base:       core.MakeBase(obs, k, v, cfg.InputBufDepth, cfg.STCycles),
		inFree:     core.NewSerializerBank(k),
		inputArb:   arb.NewRotorBank(k, v),
		credit:     core.MakeLedger(obs, "xpoint", k*k*v, cfg.XpointBufDepth),
		xp:         core.MakeFIFOBank(k*k*v, cfg.XpointBufDepth),
		xpArb:      arb.NewRotorBank(k*k, v),
		outLG:      make([]arb.Arbiter, k),
		outFree:    core.NewSerializerBank(k),
		toXp:       sim.NewCalendar[*flit.Flit](cfg.STCycles, k),
		bus:        core.MakeCreditBus(k, k, cfg.LocalGroup, v*cfg.XpointBufDepth),
		xpOcc:      make([]uint64, k*k),
		xpHead:     make([]uint64, k*k),
		xpCol:      arb.MakeBitVecs(k, k),
		outAct:     core.MakeActiveSet(k),
		candidates: arb.NewBitVec(k),
		chosenVC:   make([]int, k),
	}
	for i := 0; i < k; i++ {
		r.outLG[i] = arb.NewOutputArbiter(k, cfg.LocalGroup)
	}
	return r
}

func (r *buffered) Config() Config { return r.cfg }

// xpPool flattens a crosspoint buffer's (input, output, vc) coordinates
// into its credit-ledger pool index.
func (r *buffered) xpPool(i, o, c int) int { return (i*r.cfg.Radix+o)*r.cfg.VCs + c }

func (r *buffered) InFlight() int {
	return r.In.Buffered() + r.Out.Len() + r.toXp.Len() + r.xpFlits
}

// Quiescent adds the crosspoint side to the base test: the row buses
// must hold no credits and no flit may sit in or be in flight to a
// crosspoint buffer.
func (r *buffered) Quiescent() bool {
	return r.In.Buffered() == 0 && r.Out.Len() == 0 &&
		r.toXp.Len() == 0 && r.xpFlits == 0 && r.bus.Pending() == 0
}

func (r *buffered) NextWake(now int64) int64 {
	// Buffered flits drive allocation, and a bus credit resolves within
	// two cycles (one arbitration, one wire hop); both pin the wake to
	// the very next cycle.
	if r.In.Buffered() > 0 || r.xpFlits > 0 || r.bus.Pending() > 0 {
		return now + 1
	}
	return min(r.Out.NextWake(), r.toXp.NextAt())
}

func (r *buffered) Step(now int64) {
	r.BeginCycle(now)
	// Flits land in their crosspoint buffers after traversing the row.
	r.toXp.PopDue(now, func(fs []*flit.Flit) {
		for _, f := range fs {
			xi := f.Src*r.cfg.Radix + f.Dst
			if r.xp.Push(xi*r.cfg.VCs+f.VC, f) == 1 {
				// f becomes the queue's front: mirror it in the masks.
				if r.xpOcc[xi] == 0 {
					r.xpCol[f.Dst].Set(f.Src)
				}
				r.xpOcc[xi] |= 1 << uint(f.VC)
				if f.Head {
					r.xpHead[xi] |= 1 << uint(f.VC)
				}
			}
			r.outAct.Inc(f.Dst)
		}
		r.xpFlits += len(fs)
	})
	r.outputStage(now)
	r.inputStage(now)
	// A no-op under IdealCredit, whose credits never enter the buses.
	r.bus.Step(now, func(i, output, vc int) {
		r.credit.Return(now, r.xpPool(i, output, vc), i, output, vc)
	})
}

// outputStage performs the two-stage output VC allocation and drains one
// flit per free output per round.
func (r *buffered) outputStage(now int64) {
	for o := r.outAct.Next(0); o >= 0; o = r.outAct.Next(o + 1) {
		if !r.outFree.Free(o, now) {
			continue
		}
		r.candidates.Reset()
		any := false
		// The VC-ownership test depends only on (o, c), so the owner
		// table's maintained free mask is read once per output; a
		// crosspoint's eligible VCs are then its occupied fronts that are
		// either body flits or head flits whose VC is free — three words
		// of bit arithmetic in place of peeking every queue.
		freeVC := r.Owner.FreeMask(o)
		col := &r.xpCol[o]
		for i := col.Next(0); i >= 0; i = col.Next(i + 1) {
			xi := i*r.cfg.Radix + o
			m := r.xpOcc[xi] & (^r.xpHead[xi] | freeVC)
			if m == 0 {
				continue
			}
			c := r.xpArb.Arbitrate(xi, m)
			r.candidates.Set(i)
			r.chosenVC[i] = c
			any = true
		}
		if !any {
			continue
		}
		win := r.outLG[o].ArbitrateBits(r.candidates)
		c := r.chosenVC[win]
		xi := win*r.cfg.Radix + o
		f, nf := r.xp.Pop(xi*r.cfg.VCs + c)
		switch {
		case nf == nil:
			r.xpOcc[xi] &^= 1 << uint(c)
			r.xpHead[xi] &^= 1 << uint(c)
			if r.xpOcc[xi] == 0 {
				col.Clear(win)
			}
		case nf.Head:
			r.xpHead[xi] |= 1 << uint(c)
		default:
			r.xpHead[xi] &^= 1 << uint(c)
		}
		r.outAct.Dec(o)
		r.xpFlits--
		if f.Head {
			r.Owner.Acquire(o, c, f.PacketID)
		}
		r.Obs.Emit(Event{Cycle: now, Kind: EvGrant, Flit: f, Input: win, Output: o, VC: c, Note: "output"})
		r.outFree.Reserve(o, now, r.cfg.STCycles)
		r.Out.Push(now, o, f)
		if r.cfg.IdealCredit {
			r.credit.Return(now, r.xpPool(win, o, c), win, o, c)
		} else {
			r.bus.Enqueue(win, o, c)
		}
	}
}

// inputStage forwards at most one flit per input row into a crosspoint
// buffer, subject to credits. No allocation beyond the input round-robin
// is needed — this is the decoupling that removes head-of-line blocking.
func (r *buffered) inputStage(now int64) {
	v := r.cfg.VCs
	for i := r.In.NextOccupied(0); i >= 0; i = r.In.NextOccupied(i + 1) {
		if !r.inFree.Free(i, now) {
			continue
		}
		var req uint64
		fronts := r.In.Fronts(i)
		for c := 0; c < v; c++ {
			fr := &fronts[c]
			if now > fr.Inj && r.credit.Avail(r.xpPool(i, int(fr.Dst), c)) {
				req |= 1 << uint(c)
			}
		}
		if req == 0 {
			continue
		}
		c := r.inputArb.Arbitrate(i, req)
		f := r.In.Pop(i, c)
		r.credit.Spend(now, r.xpPool(i, f.Dst, c), i, f.Dst, c)
		r.inFree.Reserve(i, now, r.cfg.STCycles)
		r.Obs.Emit(Event{Cycle: now, Kind: EvGrant, Flit: f, Input: i, Output: f.Dst, VC: c, Note: "input-row"})
		r.toXp.Schedule(now+int64(r.cfg.STCycles), f)
	}
}
