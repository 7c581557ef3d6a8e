package router

import (
	"fmt"

	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/router/core"
	"highradix/internal/sim"
)

func init() {
	Register(ArchHierarchical, Descriptor{
		Name:      "hierarchical",
		Build:     func(cfg Config) Router { return newHierarchical(cfg) },
		GrantNote: "column",
		Validate: func(c Config) []error {
			var errs []error
			if c.SubSize < 1 || c.Radix%c.SubSize != 0 {
				errs = append(errs, fmt.Errorf("subswitch size %d must divide radix %d", c.SubSize, c.Radix))
			}
			return append(errs, validateXpointDepth(c)...)
		},
		Variants: func(radix, vcs int) []Variant {
			return []Variant{{"hierarchical", Config{
				Arch: ArchHierarchical, Radix: radix, VCs: vcs,
				SubSize: variantSubSize(radix), LocalGroup: variantLocalGroup(radix),
			}}}
		},
		BenchRadices: []int{64, 128, 256},
	})
}

// creditWireDelay is how long a freed subswitch-input slot's credit
// takes to reach the router input that feeds it.
const creditWireDelay = 2

// hierarchical is the paper's proposed architecture (Section 6,
// Figure 16): the k x k crossbar is decomposed into a (k/p) x (k/p)
// grid of p x p subswitches. Only subswitch inputs and outputs carry
// buffers, all per virtual channel, so storage grows as O(v*k^2/p)
// instead of the fully buffered crossbar's O(v*k^2).
//
// The subswitch input buffers are allocated according to a packet's
// *input* VC (credit flow control from the router input, no allocation
// needed), while the subswitch output buffers are allocated according
// to the packet's *output* VC — VC allocation is thereby decoupled into
// a local allocation inside the subswitch and a global allocation among
// the subswitches of an output column, and flits never need to be
// NACKed out of intermediate buffers.
//
// Head-of-line blocking can reappear inside a subswitch: a subswitch
// input buffer is shared by the p outputs of its column group, which is
// exactly why the adversarial pattern of Section 6 (all traffic of a
// row group aimed at one column group) degrades the hierarchical design
// while uniform traffic, which loads each subswitch at only lambda*p/k,
// does not.
type hierarchical struct {
	cfg Config
	p   int // subswitch size
	g   int // groups per side = k/p
	// grp and loc split a router port into its row or column group
	// (port/p) and its local port inside the group (port%p), tabulated
	// so no stage divides by the run-time p.
	grp, loc []int32
	core.Base

	// row feeds the subswitch inputs, one column per column group; col
	// is the subswitch outputs, one row per row group.
	row      rowStage
	col      columnStage
	creditIn core.Ledger // subIn pools flat [(input*g+column)*v+vc]

	// Subswitch state, one flat bank each. Subswitch (row, col) is
	// s = row*g+col; its local port x (input q or output j) is s*p+x,
	// and VC c of that port is (s*p+x)*v+c. Local output s*p+j is
	// column-stage buffer row*k+o, so its credits are col's.
	subIn       core.FIFOBank       // [(s*p+q)*v+c]
	subOutOwner core.VCOwnerTable   // local VC allocation over (s*p+j, c)
	intInFree   core.SerializerBank // [s*p+q]
	intOutFree  core.SerializerBank // [s*p+j]
	subInArb    *arb.RotorBank      // [s*p+q] over VCs
	intArb      []arb.RoundRobin    // [s*p+j] over local inputs

	toSubOut   *sim.Calendar[*flit.Flit]  // STCycles long
	creditWire *sim.Calendar[flit.Credit] // subIn slot freed -> router input

	// Active sets. The internal stage walks only subswitches holding
	// flits (subAct), and within one only the occupied local inputs
	// (subInAct).
	subAct   core.ActiveSet   // over g*g subswitches s
	subInAct []core.ActiveSet // [s] over local inputs q
	// subInFlits counts flits across the subswitch input buffers,
	// maintained as flits land and drain so InFlight never walks the grid.
	subInFlits int

	cand   *arb.BitVec // sized p: internal-stage local-input candidates
	candVC []int       // sized p
	// subHeads caches the head flit of every subswitch input queue — the
	// only fields the internal stage's gather reads. A queue's front
	// changes only where flits land (row-wire drain) and leave
	// (internal-stage grant), so the cache is patched at those two sites
	// and the gather never peeks a queue.
	subHeads []subHead // [(s*p+q)*v+c], the layout of subIn

	// The internal stage's gather, for one subswitch at a time: an entry
	// per (free occupied input, local output) holding the VCs the input
	// may send there, chained per output in ascending input order from
	// first[j] to last[j] while gathered has j.
	gathered    *arb.BitVec // sized p
	first, last []int32     // sized p
	reqs        []subReq    // capacity p*v
}

// subReq is one gather entry: local input q asks for the output VCs in
// vcs; next chains the entries of one output (-1 ends the chain).
type subReq struct {
	vcs     uint64
	q, next int32
}

// subHead is one internalStage head-cache entry: the head flit's local
// destination (dst, -1 when the queue is empty), Head bit and packet ID.
type subHead struct {
	id   uint64
	dst  int32
	head bool
}

func newHierarchical(cfg Config) *hierarchical {
	k, v, p := cfg.Radix, cfg.VCs, cfg.SubSize
	g := k / p
	obs := core.Obs{O: cfg.Observer}
	r := &hierarchical{
		cfg:         cfg,
		p:           p,
		g:           g,
		grp:         make([]int32, k),
		loc:         make([]int32, k),
		Base:        core.MakeBase(obs, k, v, cfg.InputBufDepth, cfg.STCycles),
		creditIn:    core.MakeLedger(obs, "subin", k*g*v, cfg.XpointBufDepth),
		subOutOwner: core.MakeVCOwnerTable(k*g, v),
		intInFree:   core.NewSerializerBank(k * g),
		intOutFree:  core.NewSerializerBank(k * g),
		subInArb:    arb.NewRotorBank(k*g, v),
		intArb:      make([]arb.RoundRobin, k*g),
		toSubOut:    sim.NewCalendar[*flit.Flit](cfg.STCycles, k),
		creditWire:  sim.NewCalendar[flit.Credit](creditWireDelay, k),
		subAct:      core.MakeActiveSet(g * g),
		subInAct:    core.MakeActiveSets(g*g, p),
		cand:        arb.NewBitVec(p),
		candVC:      make([]int, p),
		subHeads:    make([]subHead, k*g*v),
		gathered:    arb.NewBitVec(p),
		first:       make([]int32, p),
		last:        make([]int32, p),
		reqs:        make([]subReq, 0, p*v),
	}
	for i := range r.subHeads {
		r.subHeads[i].dst = -1 // all queues start empty
	}
	for i := range r.intArb {
		r.intArb[i] = arb.MakeRoundRobin(p)
	}
	for i := 0; i < k; i++ {
		r.grp[i], r.loc[i] = int32(i/p), int32(i%p)
	}
	r.subIn = r.MakeFIFOBank(k*g*v, cfg.XpointBufDepth)
	r.row = makeRowStage(&r.cfg, &r.Base, r.grp, g, v, &r.creditIn, "row-bus")
	r.col = makeColumnStage(&r.cfg, &r.Base, g, v, cfg.XpointBufDepth, "subout", "column")
	return r
}

func (r *hierarchical) Config() Config { return r.cfg }

// sub returns the subswitch s = row*g+col that a flit from router input
// src to router output dst crosses.
func (r *hierarchical) sub(src, dst int) int { return int(r.grp[src])*r.g + int(r.grp[dst]) }

func (r *hierarchical) InFlight() int {
	return r.In.Buffered() + r.Out.Len() + r.row.wire.Len() + r.toSubOut.Len() +
		r.subInFlits + r.col.flits
}

// NextWake adds the subswitch side to the base answer: the subswitch
// buffers, the wires to them and the subswitch-input credits on the
// return wire.
func (r *hierarchical) NextWake(now int64) int64 {
	if r.In.Buffered() > 0 || r.subInFlits > 0 || r.col.flits > 0 {
		return now + 1
	}
	return min(r.Out.NextWake(), r.row.wire.NextAt(), r.toSubOut.NextAt(), r.creditWire.NextAt())
}

func (r *hierarchical) Step(now int64) {
	r.BeginCycle(now)
	r.row.wire.PopDue(now, func(fs []*flit.Flit) {
		for _, f := range fs {
			s, q, j := r.sub(f.Src, f.Dst), int(r.loc[f.Src]), r.loc[f.Dst]
			qi := (s*r.p+q)*r.cfg.VCs + f.VC
			if r.subIn.Push(qi, f) == 1 {
				// f becomes the queue's front: mirror it in the head cache.
				h := &r.subHeads[qi]
				h.id, h.dst, h.head = f.PacketID, j, f.Head
			}
			r.subAct.Inc(s)
			r.subInAct[s].Inc(q)
		}
		r.subInFlits += len(fs)
	})
	r.toSubOut.PopDue(now, func(fs []*flit.Flit) {
		for _, f := range fs {
			r.col.land(int(r.grp[f.Src]), f)
		}
	})
	r.creditWire.PopDue(now, func(cs []flit.Credit) {
		for _, c := range cs {
			r.creditIn.Return(now, r.row.pool(c.Input, c.Output, c.VC), c.Input, c.Output, c.VC)
		}
	})
	r.col.step(now)
	r.internalStage(now)
	r.row.step(now)
}

// internalStage moves flits across each p x p subswitch crossbar from
// input buffers to output buffers, performing the local VC allocation.
// It reads a subswitch's heads once per cycle (gather) and then
// arbitrates the local outputs they ask for in ascending order, each
// over its own chain: O(p*v) per subswitch, where asking every input
// again for each demanded output was O(p*p*v).
func (r *hierarchical) internalStage(now int64) {
	v, p, g := r.cfg.VCs, r.p, r.g
	for s := r.subAct.Next(0); s >= 0; s = r.subAct.Next(s + 1) {
		row, col := s/g, s%g
		sp := s * p
		r.gather(now, s)
		for j := r.gathered.Next(0); j >= 0; j = r.gathered.Next(j + 1) {
			pj := sp + j
			r.cand.Reset()
			any := false
			for e := r.first[j]; e >= 0; e = r.reqs[e].next {
				q := int(r.reqs[e].q)
				if !r.intInFree.Free(sp+q, now) {
					continue // it won an earlier output this cycle
				}
				r.cand.Set(q)
				r.candVC[q] = r.subInArb.Arbitrate(sp+q, r.reqs[e].vcs)
				any = true
			}
			if !any {
				continue
			}
			q := r.intArb[pj].ArbitrateBits(r.cand)
			c := r.candVC[q]
			qi := (sp+q)*v + c
			f, nf := r.subIn.Pop(qi)
			if h := &r.subHeads[qi]; nf != nil {
				h.id, h.dst, h.head = nf.PacketID, r.loc[nf.Dst], nf.Head
			} else {
				h.dst = -1
			}
			r.subAct.Dec(s)
			r.subInAct[s].Dec(q)
			r.subInFlits--
			if f.Head {
				r.subOutOwner.Acquire(pj, c, f.PacketID)
			}
			if f.Tail {
				r.subOutOwner.Release(pj, c, f.PacketID)
			}
			r.col.credit.Spend(now, pj*v+c, row, col*p+j, c)
			r.intInFree.Reserve(sp+q, now, r.cfg.STCycles)
			r.intOutFree.Reserve(pj, now, r.cfg.STCycles)
			r.Obs.Emit(now, EvGrant, f, row*p+q, f.Dst, c, "subswitch")
			r.toSubOut.Schedule(now+int64(r.cfg.STCycles), f)
			// Freed subswitch input slot: return a credit to the
			// router input that feeds local port q of this row.
			r.creditWire.Schedule(now+creditWireDelay, flit.Credit{Input: row*p + q, Output: col, VC: c})
		}
		r.gathered.Reset()
		r.reqs = r.reqs[:0]
	}
}

// gather chains, by local output, the heads of subswitch s's free
// occupied inputs that may cross this cycle. Output VC c of local port
// j can take a flit while j's serializer is free and c's buffer has a
// credit; a head flit additionally needs the VC unowned, a body flit
// needs its own packet to own it. None of that changes for j before j
// is arbitrated: a grant touches only its own output's state, and its
// input's, which the arbitration tests again.
func (r *hierarchical) gather(now int64, s int) {
	v, sp := r.cfg.VCs, s*r.p
	occ := &r.subInAct[s]
	for q := occ.Next(0); q >= 0; q = occ.Next(q + 1) {
		if !r.intInFree.Free(sp+q, now) {
			continue
		}
		hs := r.subHeads[(sp+q)*v : (sp+q+1)*v]
		for c := range hs {
			h := &hs[c]
			if h.dst < 0 {
				continue
			}
			j := int(h.dst)
			pj := sp + j
			if !r.intOutFree.Free(pj, now) || !r.col.credit.Avail(pj*v+c) ||
				!(h.head && r.subOutOwner.FreeMask(pj)>>uint(c)&1 != 0 || !h.head && r.subOutOwner.OwnedBy(pj, c, h.id)) {
				continue
			}
			if !r.gathered.Get(j) {
				r.gathered.Set(j)
				r.first[j] = int32(len(r.reqs))
			} else if e := r.last[j]; int(r.reqs[e].q) == q {
				r.reqs[e].vcs |= 1 << uint(c)
				continue
			} else {
				r.reqs[e].next = int32(len(r.reqs))
			}
			r.last[j] = int32(len(r.reqs))
			r.reqs = append(r.reqs, subReq{vcs: 1 << uint(c), q: int32(q), next: -1})
		}
	}
}
