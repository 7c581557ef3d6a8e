package router

import (
	"math/bits"

	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/router/core"
)

// sepAlloc is the centralized separable allocator of the low-radix
// router (Section 3), factored out so allocation-policy variants that
// keep the paper's reference switch allocation but change the buffer
// organization — the dynamic-VC family — compose it instead of copying
// it. It owns the output and VC arbiters and all per-cycle scratch; the
// embedding router supplies its Config and core.Base (whose switch ports,
// the input VC round robins and the port serializers, it drives) and,
// optionally, an onPop hook observing every flit the allocator removes
// from an input buffer (before its VC field is rewritten to the output
// VC), which is where a shared-pool credit ledger returns its credit.
//
// The allocation behavior is exactly the low-radix router's: moving the
// code here changed no arbitration order or state.
//
// Both stages visit only input VCs that can bid. An occupied input VC
// (core.InputBank.HeldVCs) whose head packet holds no output VC waits
// for VA; one whose packet holds one is SA-ready. routed is the word
// that splits the two, kept where OutVC changes: a VA grant sets the
// bit, a departing tail clears it.
type sepAlloc struct {
	cfg   *Config
	base  *core.Base
	onPop func(now int64, input, vc int, f *flit.Flit)

	outArb []arb.RoundRobin // per output, over inputs
	va     []vaKey          // per output VC (flat o*v+ov)
	routed []uint64         // per input: bit c raised iff Front(i, c).OutVC >= 0

	// scratch
	saReqVC      []int        // per input: requesting VC this iteration
	outReqs      []arb.BitVec // per output: requesting inputs this iteration
	outActive    arb.BitVec   // outputs with at least one request
	inputMatched arb.BitVec   // inputs matched in an earlier iteration
	vaActive     arb.BitVec   // output VCs with at least one request
}

// vaKey is one output VC's grant arbiter: a rotating pointer over the
// flat input-VC index, and this cycle's two candidates for the grant.
// Requests arrive in ascending flat index, so the first requester at or
// after ptr wins, or failing one the first requester overall — the
// requester of least rank (fi - ptr) mod k*v.
type vaKey struct {
	ptr            int32
	first, fromPtr int32 // -1 when none
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
		outArb:       make([]arb.RoundRobin, k),
		va:           make([]vaKey, k*v),
		routed:       make([]uint64, k),
		saReqVC:      make([]int, k),
		outReqs:      arb.MakeBitVecs(k, k),
		outActive:    arb.MakeBitVec(k),
		inputMatched: arb.MakeBitVec(k),
		vaActive:     arb.MakeBitVec(k * v),
	}
	for i := 0; i < k; i++ {
		s.outArb[i] = arb.MakeRoundRobin(k)
	}
	for key := range s.va {
		s.va[key].first, s.va[key].fromPtr = -1, -1
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
	v := s.cfg.VCs
	in, owner := &s.base.In, &s.base.Owner
	for wi, iw := range in.Occupied().Words() {
		for ; iw != 0; iw &= iw - 1 {
			i := wi<<6 | bits.TrailingZeros64(iw)
			fronts := in.Fronts(i)
			for w := in.HeldVCs(i) &^ s.routed[i]; w != 0; w &= w - 1 {
				c := bits.TrailingZeros64(w)
				fr := &fronts[c]
				// A flit accepted this cycle does not bid until the next.
				if !fr.Head || now <= fr.Inj {
					continue
				}
				o := int(fr.Dst)
				// Rotating choice of a free output VC; the centralized
				// allocator sees VC status, so only free VCs are requested.
				cand := arb.RotFirst(owner.FreeMask(o), int(fr.Rot))
				if cand < 0 {
					if fr.Rot++; int(fr.Rot) == v {
						fr.Rot = 0
					}
					continue
				}
				key := o*v + cand
				a, fi := &s.va[key], int32(i*v+c)
				if a.first < 0 {
					a.first = fi
					s.vaActive.Set(key)
				}
				if a.fromPtr < 0 && fi >= a.ptr {
					a.fromPtr = fi
				}
			}
		}
	}
	// Grants on distinct output VCs are independent (each input VC
	// requests exactly one key), so granting them in ascending key order
	// leaves the same state as any other order.
	for kw, w := range s.vaActive.Words() {
		for ; w != 0; w &= w - 1 {
			s.grantVC(kw<<6 | bits.TrailingZeros64(w))
		}
	}
	s.vaActive.Reset()
}

// grantVC grants output VC key (flat o*v+ov) to its winning requester
// and moves the key's pointer one past it.
func (s *sepAlloc) grantVC(key int) {
	v := s.cfg.VCs
	a := &s.va[key]
	best := a.fromPtr
	if best < 0 {
		best = a.first
	}
	if a.ptr = best + 1; int(a.ptr) == len(s.va) {
		a.ptr = 0
	}
	a.first, a.fromPtr = -1, -1
	o, ov := key/v, key%v
	i, c := int(best)/v, int(best)%v
	fr := s.base.In.Front(i, c)
	s.base.Owner.Acquire(o, ov, fr.Pkt)
	fr.OutVC = int16(ov)
	s.routed[i] |= 1 << uint(c)
}

// switchAllocate is the single-cycle separable input-first switch
// allocator: each idle input picks one ready VC, then each output
// grants one requesting input. With Config.AllocIters > 1 the match is
// refined iSLIP-style: unmatched inputs re-bid, avoiding outputs that
// already matched — the centralized luxury the paper's reference design
// enjoys and the distributed design cannot afford.
func (s *sepAlloc) switchAllocate(now int64) {
	st := s.cfg.STCycles
	in, inPort, outPort, inVC := &s.base.In, s.base.InPort, s.base.OutPort, s.base.InVC
	for iter := 0; iter < s.cfg.AllocIters; iter++ {
		anyReq := false
		for wi, iw := range in.Occupied().Words() {
			for ; iw != 0; iw &= iw - 1 {
				i := wi<<6 | bits.TrailingZeros64(iw)
				if s.inputMatched.Get(i) || !inPort.Free(i, now) {
					continue
				}
				var req uint64
				fronts := in.Fronts(i)
				for w := in.HeldVCs(i) & s.routed[i]; w != 0; w &= w - 1 {
					c := bits.TrailingZeros64(w)
					fr := &fronts[c]
					// On the first iteration the input stage is blind to
					// output status (a busy-output bid wastes the input's
					// cycle — the head-of-line behavior that caps
					// input-queued switches near 60%, Section 4.3). Later
					// iterations only re-bid toward outputs that can still
					// be granted, which is what the refinement is for.
					if now <= fr.Inj || iter > 0 && !outPort.Free(int(fr.Dst), now) {
						continue
					}
					req |= 1 << uint(c)
				}
				if req == 0 {
					continue
				}
				c := inVC.Arbitrate(i, req)
				s.saReqVC[i] = c
				o := int(fronts[c].Dst)
				s.outReqs[o].Set(i)
				s.outActive.Set(o)
				anyReq = true
			}
		}
		if !anyReq {
			break
		}
		for o := s.outActive.Next(0); o >= 0; o = s.outActive.Next(o + 1) {
			reqs := &s.outReqs[o]
			if outPort.Free(o, now) {
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
					s.routed[win] &^= 1 << uint(c)
				}
				// Traversal occupies cycles now+1 .. now+STCycles; the flit
				// ejects on the final traversal cycle.
				inPort.Reserve(win, now, st)
				outPort.Reserve(o, now, st)
				s.base.Obs.Emit(now, EvGrant, f, win, o, f.VC, "switch")
				s.base.Out.Push(now, o, f)
				s.inputMatched.Set(win)
			}
			reqs.Reset()
		}
		s.outActive.Reset()
	}
	s.inputMatched.Reset()
}
