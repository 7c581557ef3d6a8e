// Package router implements the router microarchitectures studied by
// the paper:
//
//   - ArchLowRadix — the conventional input-queued virtual-channel router
//     of Section 3 with centralized single-cycle allocation. It is the
//     paper's (unrealistic at high radix) comparison point.
//   - ArchBaseline — the baseline scaled to high radix (Section 4) with
//     the distributed separable switch allocator of Figure 6 and
//     speculative virtual-channel allocation, either CVA (crosspoint VC
//     allocation) or OVA (output VC allocation), optionally with the
//     prioritized dual switch arbiter of Section 4.4.
//   - ArchBuffered — the fully buffered crossbar of Section 5 with
//     per-input-VC crosspoint buffers, credit-based flow control and a
//     shared credit-return bus per input row.
//   - ArchSharedXpoint — the Section 5.4 variant with a single shared
//     buffer per crosspoint and ACK/NACK retention in the input buffers.
//   - ArchHierarchical — the paper's contribution (Section 6): the
//     crossbar decomposed into p x p subswitches with per-VC buffers at
//     subswitch inputs and outputs and decoupled local/global VC
//     allocation.
//
// All architectures share the same external contract (Router) so the
// testbench and benchmarks can sweep them interchangeably, and the same
// timing conventions: every switch port is serialized at STCycles per
// flit (the paper's "each flit taking 4 cycles to traverse the switch").
package router

import (
	"errors"
	"fmt"

	"highradix/internal/router/core"
)

// Arch selects a router microarchitecture. Architectures are pluggable:
// each registers a Descriptor (see registry.go) that the dispatch
// functions below consult, so adding an architecture never touches this
// file.
type Arch int

// Built-in architectures, in the order the paper develops them,
// followed by the extension families from related work.
const (
	ArchLowRadix Arch = iota
	ArchBaseline
	ArchBuffered
	ArchSharedXpoint
	ArchHierarchical
	ArchVOQ
	ArchDynVC
)

// String returns the report name of the architecture, from its
// registered descriptor.
func (a Arch) String() string {
	if d, ok := Describe(a); ok {
		return d.Name
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// ArchByName parses a report name back into an Arch. The error of an
// unknown name enumerates every registered architecture.
func ArchByName(name string) (Arch, error) {
	if a, ok := byName[name]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("router: unknown architecture %q (registered: %s)", name, archNameList(", "))
}

// VAScheme selects how the baseline architecture performs speculative
// virtual-channel allocation (Section 4.2).
type VAScheme int

const (
	// CVA maintains output-VC state at the crosspoints; requests whose
	// output VC is busy are rejected before they can win the switch, so
	// speculation wastes input bids but never switch slots.
	CVA VAScheme = iota
	// OVA defers the VC check until after the full three-stage switch
	// allocation; a winner whose VC is busy wastes the allocation round.
	OVA
)

// String returns the report name of the VA scheme.
func (s VAScheme) String() string {
	if s == OVA {
		return "OVA"
	}
	return "CVA"
}

// VAByName parses a report name back into a VAScheme.
func VAByName(name string) (VAScheme, error) {
	for _, s := range []VAScheme{CVA, OVA} {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("router: unknown VA scheme %q (want CVA or OVA)", name)
}

// SpecPolicy selects the output-VC bid of a speculative request.
type SpecPolicy int

const (
	// SpecRotate rotates the VC choice after every failed speculation,
	// so a blocked packet eventually finds a free VC — the careful
	// re-bidding Section 4.4 calls for. This is the default.
	SpecRotate SpecPolicy = iota
	// SpecFixed always bids VC 0: the naive policy whose failed bids
	// keep hammering a busy VC and waste bandwidth.
	SpecFixed
	// SpecHash spreads initial bids by packet ID but never adapts to
	// failure.
	SpecHash
)

// String returns the report name of the policy.
func (p SpecPolicy) String() string {
	switch p {
	case SpecFixed:
		return "fixed"
	case SpecHash:
		return "hash"
	default:
		return "rotate"
	}
}

// Config parameterizes every architecture. Zero fields are filled in by
// WithDefaults with the paper's evaluation parameters (k=64, v=4,
// 4-cycle switch traversal, 4-flit crosspoint buffers, m=8 local
// arbitration groups, p=8 subswitches).
type Config struct {
	// Arch selects the microarchitecture.
	Arch Arch
	// Radix is k, the number of input and output ports.
	Radix int
	// VCs is v, the number of virtual channels.
	VCs int
	// InputBufDepth is the per-input-VC buffer depth in flits.
	InputBufDepth int
	// XpointBufDepth is the per-VC depth in flits of the buffers inside
	// the crossbar: each crosspoint's (buffered, sharedxp, VOQ) or each
	// subswitch input's and output's (hierarchical).
	XpointBufDepth int
	// SubSize is p, the subswitch size of the hierarchical crossbar.
	SubSize int
	// STCycles is the switch traversal time of one flit in cycles.
	STCycles int
	// LocalGroup is m, the local arbitration group size of the
	// distributed output arbiters (Figure 6).
	LocalGroup int
	// AllocIters is the number of allocation iterations of the
	// centralized low-radix switch allocator (iSLIP-style). The paper's
	// reference design uses a single iteration; more iterations shrink
	// the head-of-line matching loss and are only affordable because
	// the allocator is centralized — which is exactly why it does not
	// scale to high radix.
	AllocIters int
	// VA selects CVA or OVA for the baseline architecture.
	VA VAScheme
	// SpecPolicy selects how a speculative head flit picks the output
	// VC it bids for (baseline architecture; Section 4.4 discusses how
	// careless re-bidding wastes bandwidth).
	SpecPolicy SpecPolicy
	// Prioritized enables the dual speculative/nonspeculative switch
	// arbiter of Section 4.4 (baseline architecture only).
	Prioritized bool
	// IdealCredit bypasses the shared credit-return bus and returns
	// credits instantly (the "ideal (but not realizable) switch" of
	// Section 5.2, used as an ablation).
	IdealCredit bool
	// Observer, when non-nil, receives per-flit microarchitectural
	// events (accepts, grants, NACKs, ejects). Purely diagnostic; nil
	// costs nothing.
	Observer Observer `key:"nil"`
}

// MaxRadix is the largest radix Validate accepts. Every buffer is built
// whole at construction, and a fully buffered router holds k^2*v
// crosspoint FIFOs: at k = 1024 that is already about 200 MB.
const MaxRadix = 1024

// WithDefaults returns a copy of c with unset fields replaced by the
// paper's evaluation defaults.
func (c Config) WithDefaults() Config {
	if c.Radix == 0 {
		c.Radix = 64
	}
	if c.VCs == 0 {
		c.VCs = 4
	}
	if c.InputBufDepth == 0 {
		c.InputBufDepth = 16
	}
	if c.XpointBufDepth == 0 {
		c.XpointBufDepth = 4
	}
	if c.SubSize == 0 {
		c.SubSize = 8
	}
	if c.STCycles == 0 {
		c.STCycles = 4
	}
	if c.LocalGroup == 0 {
		c.LocalGroup = 8
	}
	if c.AllocIters == 0 {
		c.AllocIters = 1
	}
	return c
}

// Validate reports configuration errors. Call on a config that has been
// through WithDefaults.
func (c Config) Validate() error {
	var errs []error
	if c.Radix < 2 {
		errs = append(errs, fmt.Errorf("radix %d < 2", c.Radix))
	}
	if c.Radix > MaxRadix {
		errs = append(errs, fmt.Errorf("radix %d > MaxRadix %d", c.Radix, MaxRadix))
	}
	if c.VCs < 1 {
		errs = append(errs, fmt.Errorf("vcs %d < 1", c.VCs))
	}
	if c.VCs > 64 {
		// Per-VC request vectors travel as single machine words in the
		// step loops; the paper's routers use at most 8 VCs.
		errs = append(errs, fmt.Errorf("vcs %d > 64", c.VCs))
	}
	if c.InputBufDepth < 1 {
		errs = append(errs, fmt.Errorf("input buffer depth %d < 1", c.InputBufDepth))
	}
	// Every buffer is a ring with 16-bit cursors (core.FIFOBank,
	// core.CreditBus); the deepest any architecture builds from these
	// fields are the dynamic-VC pool of VCs x InputBufDepth flits and the
	// buffered crossbar's credit rings of VCs x XpointBufDepth credits.
	if d := c.VCs * max(c.InputBufDepth, c.XpointBufDepth); d > core.MaxFIFODepth {
		errs = append(errs, fmt.Errorf("buffer depth %d > %d", d, core.MaxFIFODepth))
	}
	if c.STCycles < 1 {
		errs = append(errs, fmt.Errorf("switch traversal %d < 1 cycles", c.STCycles))
	}
	if c.LocalGroup < 2 {
		// A group of one arbitrates nothing: an output arbiter's every
		// stage must merge at least two lines (arb.NewTree).
		errs = append(errs, fmt.Errorf("local group %d < 2", c.LocalGroup))
	}
	d, registered := Describe(c.Arch)
	if !registered {
		errs = append(errs, fmt.Errorf("unknown architecture %d", int(c.Arch)))
	} else if d.Validate != nil {
		errs = append(errs, d.Validate(c)...)
	}
	if c.Prioritized && registered && !d.UsesPrioritized {
		errs = append(errs, errors.New("prioritized allocation applies only to the baseline architecture"))
	}
	return errors.Join(errs...)
}

// New constructs a router for the configuration through the registered
// descriptor. Defaults are applied and the configuration validated.
func New(cfg Config) (Router, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("router: invalid config: %w", err)
	}
	d, ok := Describe(cfg.Arch)
	if !ok {
		return nil, fmt.Errorf("router: unknown architecture %d", int(cfg.Arch))
	}
	return d.Build(cfg), nil
}
