package router

import (
	"highradix/internal/flit"
	"highradix/internal/router/core"
)

func init() {
	Register(ArchDynVC, Descriptor{
		Name:      "dynvc",
		Build:     func(cfg Config) Router { return newDynVC(cfg) },
		GrantNote: "switch",
		Variants: func(radix, vcs int) []Variant {
			return []Variant{{"dynvc", Config{Arch: ArchDynVC, Radix: radix, VCs: vcs}}}
		},
		BenchRadices: []int{64, 128, 256},
	})
}

// dynVC is the dynamic/shared virtual-channel organization of Onsori &
// Safaei over the paper's reference allocator: instead of v statically
// partitioned buffers of Config.InputBufDepth flits, each input owns
// one shared pool of P = v*InputBufDepth flits that is carved into VCs
// on demand. Admission is governed by a congestion-aware sizing rule:
// one slot per VC is reserved (so an idle VC can always start a packet
// and the allocator never deadlocks), and the shareable remainder
// S = P - v is divided evenly among the VCs currently active at that
// input — a lightly loaded input lets one bursty VC take most of the
// pool, while congestion shrinks every VC's cap toward the static
// partition. Switch and VC allocation are the centralized separable
// sepAlloc shared with the low-radix router, so any performance delta
// against lowradix isolates the buffer organization.
//
// A credit ledger audits the pool: every accepted flit spends one
// credit of its input's pool, returned when switch allocation drains
// the flit, so the checker proves the shared pool never overflows P.
type dynVC struct {
	cfg Config
	core.Base
	alloc sepAlloc

	pool     core.Ledger // per-input shared pools
	poolSize int         // P = VCs * InputBufDepth
	activeVC []int8      // per input: VCs currently holding flits
}

func newDynVC(cfg Config) *dynVC {
	k, v := cfg.Radix, cfg.VCs
	p := v * cfg.InputBufDepth
	r := &dynVC{
		cfg: cfg,
		// Physical queues are deep enough that only the sizing rule ever
		// binds: any single VC may grow to the whole pool.
		Base:     core.MakeBase(core.Obs{O: cfg.Observer}, k, v, p, cfg.STCycles),
		poolSize: p,
		activeVC: make([]int8, k),
	}
	r.pool = core.MakeLedger(core.Obs{O: cfg.Observer}, "dynvc", k, p)
	r.alloc = makeSepAlloc(&r.cfg, &r.Base, r.onPop)
	return r
}

func (r *dynVC) Config() Config { return r.cfg }

// Storage is the pool's capacity, k*v*InputBufDepth flits, the one
// override of core.Base's count: the input bank is built v times deeper
// than the pool it models only so that any VC may grow to the whole
// pool, and the pool ledger is what bounds the flits held.
func (r *dynVC) Storage() int { return r.pool.Capacity() }

// CanAccept applies the dynamic sizing rule: the pool must have a free
// slot, and the VC must be under its current cap of one reserved slot
// plus an even share of the shareable pool across the input's active
// VCs (counting the candidate VC as active).
func (r *dynVC) CanAccept(input, vc int) bool {
	used := r.In.Count(input)
	if used >= r.poolSize {
		return false
	}
	inVC := r.In.Len(input, vc)
	active := int(r.activeVC[input])
	if inVC == 0 {
		active++
	}
	cap := 1 + (r.poolSize-r.cfg.VCs)/active
	return inVC < cap
}

// Accept admits the flit into the shared pool, spending a pool credit
// under its (input, output, vc) coordinates so the checker can audit
// the pool without knowing the sizing rule.
func (r *dynVC) Accept(now int64, f *flit.Flit) {
	if r.In.Len(f.Src, f.VC) == 0 {
		r.activeVC[f.Src]++
	}
	r.In.Accept(now, f)
	r.pool.Spend(now, f.Src, f.Src, f.Dst, f.VC)
}

// onPop returns the pool credit of every flit the allocator drains,
// under the same coordinates its spend used (f.VC is still the input
// VC here; the allocator rewrites it afterwards).
func (r *dynVC) onPop(now int64, input, vc int, f *flit.Flit) {
	r.pool.Return(now, input, input, f.Dst, vc)
	if r.In.Len(input, vc) == 0 {
		r.activeVC[input]--
	}
}

// NextWake is inherited from core.Base, exactly as for
// the low-radix router: the pool ledger and active-VC counters shadow
// input-bank occupancy and hold no independent timed state.

func (r *dynVC) Step(now int64) {
	r.BeginCycle(now)
	r.alloc.switchAllocate(now)
	r.alloc.vcAllocate(now)
}
