package router

import (
	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/router/core"
)

// sepAlloc is the centralized separable allocator of the low-radix
// router (Section 3), factored out so allocation-policy variants that
// keep the paper's reference switch allocation but change the buffer
// organization — the dynamic-VC family — compose it instead of copying
// it. It owns the serializers, the rotating arbiters and all per-cycle
// scratch; the embedding router supplies its Config and core.Base and,
// optionally, an onPop hook observing every flit the allocator removes
// from an input buffer (before its VC field is rewritten to the output
// VC), which is where a shared-pool credit ledger returns its credit.
//
// The allocation behavior is exactly the low-radix router's: moving the
// code here changed no arbitration order or state.
type sepAlloc struct {
	cfg   *Config
	base  *core.Base
	onPop func(now int64, input, vc int, f *flit.Flit)

	inFree   core.SerializerBank
	outFree  core.SerializerBank
	inputArb *arb.RotorBank   // per input, over VCs
	outArb   []arb.RoundRobin // per output, over inputs
	vaPtr    [][]int          // [output][outVC] rotating pointer over input-VC flat index

	// scratch
	saReqVC      []int         // per input: requesting VC this iteration
	outReqs      []*arb.BitVec // per output: requesting inputs this iteration
	outActive    *arb.BitVec   // outputs with at least one request
	inputMatched *arb.BitVec   // inputs matched in an earlier iteration
	vaReqs       [][]int32     // per output VC (flat o*v+ov): requesting input VCs
	vaActive     *arb.BitVec   // output VCs with at least one request
}

// makeSepAlloc returns an allocator bound to the embedding router's
// config and base datapath, by value for embedding. cfg and base must
// outlive the allocator; onPop may be nil.
func makeSepAlloc(cfg *Config, base *core.Base, onPop func(int64, int, int, *flit.Flit)) sepAlloc {
	k, v := cfg.Radix, cfg.VCs
	s := sepAlloc{
		cfg:          cfg,
		base:         base,
		onPop:        onPop,
		inFree:       core.NewSerializerBank(k),
		outFree:      core.NewSerializerBank(k),
		inputArb:     arb.NewRotorBank(k, v),
		outArb:       make([]arb.RoundRobin, k),
		vaPtr:        make([][]int, k),
		saReqVC:      make([]int, k),
		outReqs:      make([]*arb.BitVec, k),
		outActive:    arb.NewBitVec(k),
		inputMatched: arb.NewBitVec(k),
		vaReqs:       make([][]int32, k*v),
		vaActive:     arb.NewBitVec(k * v),
	}
	for i := 0; i < k; i++ {
		s.outReqs[i] = arb.NewBitVec(k)
		s.outArb[i] = arb.MakeRoundRobin(k)
		s.vaPtr[i] = make([]int, v)
	}
	return s
}

// vcAllocate is the centralized separable VC allocator: each input VC
// whose head packet lacks an output VC requests one free VC on its
// output (rotating choice), and a per-output-VC arbiter grants one
// requester. Runs after switch allocation within the cycle so a newly
// allocated packet first traverses in the next cycle (VA and SA are
// distinct pipeline stages, Figure 5(b)).
func (s *sepAlloc) vcAllocate(now int64) {
	k, v := s.cfg.Radix, s.cfg.VCs
	in, owner := &s.base.In, &s.base.Owner
	// vaReqs[o*v+ov] collects flat input-VC indices; slices keep their
	// capacity across cycles, so the steady state allocates nothing.
	for i := in.NextOccupied(0); i >= 0; i = in.NextOccupied(i + 1) {
		fronts := in.Fronts(i)
		for c := 0; c < v; c++ {
			fr := &fronts[c]
			// now <= Inj also rejects empty buffers (FrontNone).
			if !fr.Head || fr.OutVC >= 0 || now <= fr.Inj {
				continue
			}
			o := int(fr.Dst)
			// Rotating scan for a free output VC; the centralized
			// allocator sees VC status, so only free VCs are requested.
			cand := -1
			for sc := 0; sc < v; sc++ {
				ov := (int(fr.Rot) + sc) % v
				if owner.FreeVC(o, ov) {
					cand = ov
					break
				}
			}
			if cand < 0 {
				fr.Rot = uint8((int(fr.Rot) + 1) % v)
				continue
			}
			key := o*v + cand
			s.vaReqs[key] = append(s.vaReqs[key], int32(i*v+c))
			s.vaActive.Set(key)
		}
	}
	// Grants on distinct output VCs are independent (each input VC
	// requests exactly one key), so the ascending-key order here and the
	// old map's random order produce identical state.
	for key := s.vaActive.Next(0); key >= 0; key = s.vaActive.Next(key + 1) {
		l := s.vaReqs[key]
		o, ov := key/v, key%v
		// Rotating-priority grant over flat input-VC index.
		ptr := s.vaPtr[o][ov]
		best, bestRank := -1, 1<<62
		for _, fi32 := range l {
			fi := int(fi32)
			rank := (fi - ptr + k*v) % (k * v)
			if rank < bestRank {
				bestRank, best = rank, fi
			}
		}
		s.vaPtr[o][ov] = (best + 1) % (k * v)
		i, c := best/v, best%v
		fr := in.Front(i, c)
		owner.Acquire(o, ov, fr.Pkt)
		fr.OutVC = int16(ov)
		s.vaReqs[key] = l[:0]
	}
	s.vaActive.Reset()
}

// switchAllocate is the single-cycle separable input-first switch
// allocator: each idle input picks one ready VC, then each output
// grants one requesting input. With Config.AllocIters > 1 the match is
// refined iSLIP-style: unmatched inputs re-bid, avoiding outputs that
// already matched — the centralized luxury the paper's reference design
// enjoys and the distributed design cannot afford.
func (s *sepAlloc) switchAllocate(now int64) {
	v := s.cfg.VCs
	st := s.cfg.STCycles
	in := &s.base.In
	for iter := 0; iter < s.cfg.AllocIters; iter++ {
		anyReq := false
		for i := in.NextOccupied(0); i >= 0; i = in.NextOccupied(i + 1) {
			if s.inputMatched.Get(i) || !s.inFree.Free(i, now) {
				continue
			}
			var req uint64
			fronts := in.Fronts(i)
			for c := 0; c < v; c++ {
				fr := &fronts[c]
				// On the first iteration the input stage is blind to
				// output status (a busy-output bid wastes the input's
				// cycle — the head-of-line behavior that caps
				// input-queued switches near 60%, Section 4.3). Later
				// iterations only re-bid toward outputs that can still
				// be granted, which is what the refinement is for.
				eligible := now > fr.Inj && fr.OutVC >= 0
				if eligible && iter > 0 && !s.outFree.Free(int(fr.Dst), now) {
					eligible = false
				}
				if eligible {
					req |= 1 << uint(c)
				}
			}
			if req == 0 {
				continue
			}
			c := s.inputArb.Arbitrate(i, req)
			s.saReqVC[i] = c
			o := int(fronts[c].Dst)
			s.outReqs[o].Set(i)
			s.outActive.Set(o)
			anyReq = true
		}
		if !anyReq {
			break
		}
		for o := s.outActive.Next(0); o >= 0; o = s.outActive.Next(o + 1) {
			reqs := s.outReqs[o]
			if s.outFree.Free(o, now) {
				win := s.outArb[o].ArbitrateBits(reqs)
				c := s.saReqVC[win]
				fr := in.Front(win, c)
				f := in.Pop(win, c)
				if s.onPop != nil {
					s.onPop(now, win, c, f)
				}
				f.VC = int(fr.OutVC)
				if f.Tail {
					fr.OutVC = -1
				}
				// Traversal occupies cycles now+1 .. now+STCycles; the flit
				// ejects on the final traversal cycle.
				s.inFree.Reserve(win, now, st)
				s.outFree.Reserve(o, now, st)
				s.base.Obs.Emit(Event{Cycle: now, Kind: EvGrant, Flit: f, Input: win, Output: o, VC: f.VC, Note: "switch"})
				s.base.Out.Push(now, o, f)
				s.inputMatched.Set(win)
			}
			reqs.Reset()
		}
		s.outActive.Reset()
	}
	s.inputMatched.Reset()
}
