package router

import (
	"highradix/internal/flit"
	"highradix/internal/router/core"
)

func init() {
	Register(ArchBuffered, Descriptor{
		Name:      "buffered",
		Build:     func(cfg Config) Router { return newBuffered(cfg) },
		GrantNote: "output",
		Validate:  validateXpointDepth,
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
// for its output and never re-arbitrates at the input (the row stage,
// each output its own column). Output VC allocation happens in two
// stages at the output: a v-to-1 arbiter selects a VC at each crosspoint
// and a k-to-1 local-global arbiter selects a crosspoint (the column
// stage, one row per input).
//
// Crosspoint buffers never overflow thanks to credit-based flow control
// (Section 5.2); credits return over a shared per-row credit bus unless
// Config.IdealCredit asks for the idealized immediate return.
type buffered struct {
	cfg Config
	core.Base

	row rowStage
	col columnStage    // crosspoints, ledger note "xpoint"
	bus core.CreditBus // one bus per input row; idle under IdealCredit
}

func newBuffered(cfg Config) *buffered {
	r := new(buffered)
	r.init(cfg, cfg.VCs, "xpoint")
	return r
}

// init builds the crossbar in place, since its stages point into r:
// crosspoints of slots FIFOs each (v, or 1 for the shared-buffer
// variant), their ledger audited under ledgerNote.
func (r *buffered) init(cfg Config, slots int, ledgerNote string) {
	k := cfg.Radix
	r.cfg = cfg
	r.Base = core.MakeBase(core.Obs{O: cfg.Observer}, k, cfg.VCs, cfg.InputBufDepth, cfg.STCycles)
	r.bus = core.MakeCreditBus(k, k, cfg.LocalGroup, slots*cfg.XpointBufDepth)
	r.col = makeColumnStage(&r.cfg, &r.Base, k, slots, cfg.XpointBufDepth, ledgerNote, "output")
	if !cfg.IdealCredit {
		r.col.bus = &r.bus
	}
	self := make([]int32, k)
	for o := range self {
		self[o] = int32(o)
	}
	r.row = makeRowStage(&r.cfg, &r.Base, self, k, slots, &r.col.credit, "input-row")
}

func (r *buffered) Config() Config { return r.cfg }

func (r *buffered) InFlight() int {
	return r.In.Buffered() + r.Out.Len() + r.row.wire.Len() + r.col.flits
}

// NextWake adds the crosspoint side to the base answer: the row buses'
// credits, the crosspoint buffers and the row wires to them.
func (r *buffered) NextWake(now int64) int64 {
	// Buffered flits drive allocation, and a bus credit resolves within
	// two cycles (one arbitration, one wire hop); both pin the wake to
	// the very next cycle.
	if r.In.Buffered() > 0 || r.col.flits > 0 || r.bus.Pending() > 0 {
		return now + 1
	}
	return min(r.Out.NextWake(), r.row.wire.NextAt())
}

func (r *buffered) Step(now int64) {
	r.BeginCycle(now)
	// Flits land in their crosspoint buffers after traversing the row.
	r.row.wire.PopDue(now, func(fs []*flit.Flit) {
		for _, f := range fs {
			r.col.land(f.Src, f)
		}
	})
	r.col.step(now)
	r.row.step(now)
	// A no-op under IdealCredit, whose credits never enter the buses.
	r.bus.Step(now, func(i, output, vc int) { r.col.returnCredit(now, i, output, vc) })
}
