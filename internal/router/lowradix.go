package router

import (
	"highradix/internal/router/core"
)

func init() {
	Register(ArchLowRadix, Descriptor{
		Name:      "lowradix",
		Build:     func(cfg Config) Router { return newLowRadix(cfg) },
		GrantNote: "switch",
		Variants: func(radix, vcs int) []Variant {
			return []Variant{{"lowradix", Config{Arch: ArchLowRadix, Radix: radix, VCs: vcs}}}
		},
		BenchRadices: []int{16, 64},
	})
}

// lowRadix is the conventional input-queued virtual-channel router of
// Section 3 (Figure 4) with centralized allocation and the short
// pipeline of Figure 5(b): RC, VA, SA each take one cycle and switch
// traversal takes STCycles. Virtual-channel allocation is
// nonspeculative — the centralized allocator sees the status of every
// output VC — and switch allocation is a single-iteration separable
// input-first match. The paper uses this design at radix 16 as the
// comparison point in Figure 9, noting that the centralized single-cycle
// allocation "does not scale" to high radix. The allocator itself lives
// in sepAlloc, shared with the dynamic-VC family.
type lowRadix struct {
	cfg Config
	core.Base
	alloc sepAlloc
}

func newLowRadix(cfg Config) *lowRadix {
	r := &lowRadix{
		cfg:  cfg,
		Base: core.MakeBase(core.Obs{O: cfg.Observer}, cfg.Radix, cfg.VCs, cfg.InputBufDepth, cfg.STCycles),
	}
	r.alloc = makeSepAlloc(&r.cfg, &r.Base, nil)
	return r
}

func (r *lowRadix) Config() Config { return r.cfg }

// NextWake is inherited from core.Base: beyond the input
// bank and ejection pipe the low-radix router holds only serializer
// timestamps, arbiter rotation state (which moves only on grants) and
// per-cycle scratch, so an empty base datapath means Step is a no-op.

func (r *lowRadix) Step(now int64) {
	r.BeginCycle(now)
	r.alloc.switchAllocate(now)
	r.alloc.vcAllocate(now)
}
