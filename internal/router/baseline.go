package router

import (
	"math/bits"

	"highradix/internal/arb"
	"highradix/internal/router/core"
	"highradix/internal/sim"
)

func init() {
	Register(ArchBaseline, Descriptor{
		Name:            "baseline",
		Build:           func(cfg Config) Router { return newBaseline(cfg) },
		GrantNote:       "switch",
		UsesPrioritized: true,
		Variants: func(radix, vcs int) []Variant {
			base := Config{Arch: ArchBaseline, Radix: radix, VCs: vcs}
			cva, ova, prio := base, base, base
			cva.VA = CVA
			ova.VA = OVA
			prio.VA = OVA
			prio.Prioritized = true
			return []Variant{
				{"baseline-cva", cva},
				{"baseline-ova", ova},
				{"baseline-prioritized", prio},
			}
		},
		BenchRadices: []int{64, 128, 256},
	})
}

// Pipeline timing of the distributed allocator (Figure 7(b-c)). A
// request issued at cycle t (SA1) crosses the request wires and is
// arbitrated at the output at t+reqWireDelay (SA2/SA3); the grant or
// NACK crosses back in grantWireDelay; a granted flit begins switch
// traversal one cycle after the grant arrives.
const (
	reqWireDelay   = 2
	grantWireDelay = 1
	stStartDelay   = 1
)

// blResponse travels back from an output arbiter to an input: which
// input, and whether it was granted. The request it answers is still
// the input's blInput, which cannot reissue until the response lands.
type blResponse struct {
	input int32
	grant bool
}

// blOutput is the distributed arbitration state co-located with one
// switch output (the right half of Figure 6 plus, for CVA, the
// per-output-VC arbiters of Figure 8(a)).
type blOutput struct {
	// pending holds the inputs whose requests wait here, in arrival
	// order with swap-remove; each input's request is its blInput.
	pending []int32
	lg      arb.Arbiter
	dual    *arb.Dual
	vcPtr   []int // CVA per-output-VC rotating pointer over inputs

	// Request bitsets maintained incrementally as requests arrive and
	// leave, so an arbitration round reads them directly instead of
	// rebuilding from the pending slice. Each input drives at most one
	// request line router-wide, so input bits are unique per output.
	// Embedded by value: the words are one dereference away.
	nonspec arb.BitVec   // inputs with pending nonspeculative requests
	spec    arb.BitVec   // inputs with pending speculative requests
	specVC  []arb.BitVec // [outVC] spec requests by target output VC
	// specVCAny has bit ov set while specVC[ov] is nonempty (VC counts
	// above 64 are rejected by Config.Validate), letting the crosspoint
	// VC arbiters skip empty per-VC sets with one register test.
	specVCAny uint64

	// vcDirty records that this output's speculative NACK decision may
	// have changed: a speculative request arrived, or an output VC was
	// acquired or released. While clear, every pending speculative
	// request was already checked against unchanged VC state, so the
	// continuous-rejection scan would NACK nothing.
	vcDirty bool
}

// reqTimeout is how long an input lets one request sit unresolved
// before withdrawing it and re-arbitrating among its VCs. Hardware
// input arbiters re-evaluate their drive every cycle; the timeout is
// the cycle-accurate shorthand for that re-selection, and without it a
// request pinned at a saturated output would hold the input's single
// request line forever and starve the input's other VCs (most visible
// on hotspot traffic, where the unbuffered baseline otherwise
// collapses).
const reqTimeout = 8

// blInput is the one home of an input's request: each input
// controller drives a single request at a time (Section 4.1), so the
// request wire, the output's pending list and the response carry only
// the input's index. It is written when the input issues and stays put
// until the response lands or the request times out; whether it is
// outstanding is the router's outst bit, and the input port's
// serializer is core.Base's InPort. Fields are narrow (int32 covers any
// radix or VC count the simulator accepts) to keep the table small.
type blInput struct {
	issuedAt int64
	pkt      uint64
	vc       int32 // input VC the request drives for
	out      int32 // requested output
	outVC    int32 // requested output VC
	reqAt    int32 // index of the input in that output's pending list
	spec     bool  // head flit without an allocated output VC
}

// baseline is the Section 4 high-radix router: an unbuffered crossbar
// with the three-stage distributed switch allocator and speculative
// virtual-channel allocation (CVA or OVA). Optionally the output
// arbiters are duplicated to prioritize nonspeculative requests
// (Section 4.4, Figure 10(b)).
type baseline struct {
	cfg Config
	core.Base

	ins  []blInput
	outs []blOutput // by value: one contiguous block, no per-output pointer chase

	reqWire  sim.Calendar[int32]      // inputs, due reqWireDelay after issue
	respWire sim.Calendar[blResponse] // due grantWireDelay after the decision

	// outst has bit i set while input i's request is outstanding: an
	// input issues from In.Occupied() &^ outst.
	outst arb.BitVec
	// outPending tracks outputs holding pending requests; idle outputs
	// cost zero work per cycle.
	outPending arb.BitVec
	// withdrawAt holds input indices: an input issuing at cycle t is
	// examined for timeout withdrawal exactly at t+reqTimeout. One
	// examination suffices — while the request is outstanding the old
	// dense scan also first saw age >= reqTimeout at exactly
	// t+reqTimeout, and if the request has already left the
	// output's pending set by then, the response doing so is at most a
	// cycle away and clears outstanding before age reqTimeout+1 is ever
	// scanned. Entries are validated against issuedAt so stale entries
	// from a withdrawn-and-reissued request are ignored.
	withdrawAt sim.Calendar[int32]

	anyReq arb.BitVec // scratch: nonspec|spec union for unprioritized arbitration
	// perVCWinner[ov] is the input winning output VC ov's crosspoint
	// arbiter this round (CVA only), or -1.
	perVCWinner []int
}

func newBaseline(cfg Config) *baseline {
	k, v := cfg.Radix, cfg.VCs
	r := &baseline{
		cfg:         cfg,
		Base:        core.MakeBase(core.Obs{O: cfg.Observer}, k, v, cfg.InputBufDepth, stStartDelay+cfg.STCycles-1),
		ins:         make([]blInput, k),
		outs:        make([]blOutput, k),
		outst:       arb.MakeBitVec(k),
		outPending:  arb.MakeBitVec(k),
		anyReq:      arb.MakeBitVec(k),
		perVCWinner: make([]int, v),
		// Each input drives at most one request line router-wide, so k
		// bounds every per-cycle wire bucket, pending set, and
		// withdrawal bucket; pre-sizing them here keeps the steady
		// state free of append regrowth at any radix.
		reqWire:    *sim.NewCalendar[int32](reqWireDelay, k),
		respWire:   *sim.NewCalendar[blResponse](grantWireDelay, k),
		withdrawAt: *sim.NewCalendar[int32](reqTimeout, k),
	}
	for i := 0; i < k; i++ {
		o := &r.outs[i]
		o.pending = make([]int32, 0, k)
		o.vcPtr = make([]int, v)
		o.nonspec = arb.MakeBitVec(k)
		o.spec = arb.MakeBitVec(k)
		o.specVC = make([]arb.BitVec, v)
		for c := 0; c < v; c++ {
			o.specVC[c] = arb.MakeBitVec(k)
		}
		if cfg.Prioritized {
			o.dual = arb.NewDual(k, func(n int) arb.Arbiter { return arb.NewOutputArbiter(n, cfg.LocalGroup) })
		} else {
			o.lg = arb.NewOutputArbiter(k, cfg.LocalGroup)
		}
	}
	return r
}

func (r *baseline) Config() Config { return r.cfg }

// NextWake is inherited from core.Base, which is sound
// because every request or response in flight implies input occupancy:
// a request issues only from an occupied input VC, and the flit it bid
// for stays in the input bank until the grant response is processed
// (NACKs leave it there). So In.Buffered() == 0 implies empty request
// and grant wires, empty pending sets and a clear outPending bitset;
// stale withdrawAt entries are inert (they are validated against
// issuedAt and only consulted while a request is outstanding).

func (r *baseline) Step(now int64) {
	r.BeginCycle(now)
	for _, f := range r.Out.Ejected() {
		// The ejection pipe released the output VC at the tail; flag the
		// output so the speculative NACK scan re-checks VC state.
		if f.Tail {
			r.outs[f.Dst].vcDirty = true
		}
	}
	r.respWire.PopDue(now, func(due []blResponse) { r.processResponses(now, due) })
	r.reqWire.PopDue(now, r.deliverRequests)
	r.arbitrateOutputs(now)
	r.issueRequests(now)
}

// pushResp sends a grant or NACK back toward an input; it arrives
// grantWireDelay cycles later.
func (r *baseline) pushResp(now int64, resp blResponse) {
	r.respWire.Schedule(now+grantWireDelay, resp)
}

// processResponses handles grants and NACKs arriving at the inputs.
func (r *baseline) processResponses(now int64, due []blResponse) {
	for _, resp := range due {
		in := int(resp.input)
		st := &r.ins[in]
		// The request resolved; the input may issue again (it still
		// holds at least the flit that bid).
		r.outst.Clear(in)
		fr := r.In.Front(in, int(st.vc))
		if !resp.grant {
			// Failed speculation: rotate the output-VC choice so the
			// re-bid eventually finds a free VC (Section 4.4).
			fr.Rot++
			if int(fr.Rot) >= r.cfg.VCs {
				fr.Rot = 0
			}
			continue
		}
		f := r.In.Pop(in, int(st.vc))
		f.VC = int(st.outVC)
		if f.Head {
			fr.OutVC = int16(f.VC)
		}
		if f.Tail {
			fr.OutVC = -1
		}
		// Traversal occupies cycles now+stStartDelay .. now+stStartDelay+ST-1;
		// the flit ejects on the final traversal cycle (the ejection
		// pipe's fixed delay).
		r.InPort.Reserve(in, now+stStartDelay, r.cfg.STCycles)
		r.Out.Push(now, f.Dst, f)
	}
}

// deliverRequests moves requests off the wires into the output pending
// sets.
func (r *baseline) deliverRequests(due []int32) {
	for _, i32 := range due {
		req := &r.ins[i32]
		ou := &r.outs[req.out]
		in := int(i32)
		req.reqAt = int32(len(ou.pending))
		ou.pending = append(ou.pending, i32)
		if req.spec {
			ou.spec.Set(in)
			ou.specVC[req.outVC].Set(in)
			ou.specVCAny |= 1 << uint(req.outVC)
			ou.vcDirty = true
		} else {
			ou.nonspec.Set(in)
		}
		r.outPending.Set(int(req.out))
	}
}

// arbitrateOutputs runs one local-global arbitration round at every
// output whose port will be free when the granted flit arrives, then
// lets the crosspoint VC arbiters reject speculative requests whose
// output VC is busy. The rejection and the switch arbitration happen in
// the same cycle (Figure 8(a) runs them in parallel), so the switch can
// grant a doomed speculative request and waste the round — the loss
// that Section 4.4's prioritized dual arbiter reduces.
func (r *baseline) arbitrateOutputs(now int64) {
	start, outPort := now+grantWireDelay+stStartDelay, r.OutPort
	for o := r.outPending.Next(0); o >= 0; o = r.outPending.Next(o + 1) {
		ou := &r.outs[o]
		if outPort.Free(o, start) {
			r.arbitrateOne(now, o, ou, start)
		}
		if r.cfg.VA == CVA && ou.vcDirty {
			ou.vcDirty = false
			r.nackBusySpecs(now, o, ou)
		}
		if len(ou.pending) == 0 {
			r.outPending.Clear(o)
		}
	}
}

// nackBusySpecs implements the crosspoint VC arbiters' continuous
// rejection: pending speculative requests whose output VC is busy are
// NACKed so the input re-bids with a rotated VC choice.
func (r *baseline) nackBusySpecs(now int64, o int, ou *blOutput) {
	if ou.specVCAny == 0 {
		return
	}
	kept := ou.pending[:0]
	for _, i32 := range ou.pending {
		req := &r.ins[i32]
		if req.spec && !r.Owner.FreeVC(o, int(req.outVC)) {
			in := int(i32)
			ou.spec.Clear(in)
			ou.specVC[req.outVC].Clear(in)
			if !ou.specVC[req.outVC].Any() {
				ou.specVCAny &^= 1 << uint(req.outVC)
			}
			r.Obs.Emit(now, EvNack, nil, in, o, int(req.outVC), "cva-busy")
			r.pushResp(now, blResponse{input: i32})
			continue
		}
		req.reqAt = int32(len(kept))
		kept = append(kept, i32)
	}
	ou.pending = kept
}

func (r *baseline) arbitrateOne(now int64, o int, ou *blOutput, start int64) {
	k, v := r.cfg.Radix, r.cfg.VCs
	// perVCWinner[ov] is the input whose speculative request the
	// crosspoint VC arbiter for output VC ov selects this round (CVA
	// only); a speculative switch winner only proceeds if it also won
	// its VC arbiter and the VC is free — switch and VC allocation run
	// in parallel (Figure 8(a)), so a mismatch wastes the round.
	perVCWinner := r.perVCWinner
	if r.cfg.VA == CVA && ou.specVCAny != 0 {
		// Crosspoint VC arbiters pick one speculative winner per free
		// output VC: the requesting input cyclically closest to the
		// rotating pointer, i.e. a rotate-aware first-set on the
		// per-VC request bitset (busy-VC requests cannot win; they are
		// NACKed by nackBusySpecs this same cycle). With no speculative
		// requests at all the loop would fill perVCWinner with -1, and
		// the scratch is only read for a speculative winner, so it is
		// skipped outright; likewise empty per-VC sets via specVCAny.
		for ov := 0; ov < v; ov++ {
			best := -1
			if ou.specVCAny>>uint(ov)&1 != 0 && r.Owner.FreeVC(o, ov) {
				best = ou.specVC[ov].FirstFrom(ou.vcPtr[ov])
			}
			perVCWinner[ov] = best
		}
	}
	// Every pending request drives the switch arbiter (speculative
	// switch allocation proceeds in parallel with VC allocation); the
	// request bitsets are maintained as requests arrive and leave.
	var winner int
	if r.cfg.Prioritized {
		winner, _ = ou.dual.ArbitrateBits(&ou.nonspec, &ou.spec)
	} else {
		r.anyReq.CopyOr(&ou.nonspec, &ou.spec)
		winner = ou.lg.ArbitrateBits(&r.anyReq)
	}
	if winner < 0 {
		return
	}
	req := &r.ins[winner]
	if req.spec {
		if r.cfg.VA == OVA && !r.Owner.FreeVC(o, int(req.outVC)) {
			// Deep speculation failed after the switch was allocated:
			// the allocation round is wasted and the failure is only
			// discovered after the grant has crossed back (Figure 7(c)),
			// so the output cannot re-arbitrate until then.
			r.OutPort.Reserve(o, now+grantWireDelay+stStartDelay, 0)
			r.removePending(ou, int(req.reqAt))
			r.Obs.Emit(now, EvNack, nil, winner, o, int(req.outVC), "ova-busy")
			r.pushResp(now, blResponse{input: int32(winner)})
			return
		}
		if r.cfg.VA == CVA && perVCWinner[req.outVC] != winner {
			// The switch arbiter granted a speculative request that did
			// not win its parallel VC arbitration — either the VC is
			// busy (the request is NACKed by nackBusySpecs this cycle)
			// or it lost the per-VC tie-break (it stays pending). Either
			// way the switch round is wasted (Figure 8(a)).
			r.Obs.Emit(now, EvNack, nil, winner, o, int(req.outVC), "cva-lost-vc-arb")
			return
		}
		r.Owner.Acquire(o, int(req.outVC), req.pkt)
		ou.vcDirty = true
		if r.cfg.VA == CVA {
			ou.vcPtr[req.outVC] = (winner + 1) % k
		}
	}
	r.removePending(ou, int(req.reqAt))
	r.OutPort.Reserve(o, start, r.cfg.STCycles)
	r.Obs.Emit(now, EvGrant, nil, winner, o, int(req.outVC), "switch")
	r.pushResp(now, blResponse{input: int32(winner), grant: true})
}

func (r *baseline) removePending(ou *blOutput, idx int) {
	in := int(ou.pending[idx])
	req := &r.ins[in]
	if req.spec {
		ou.spec.Clear(in)
		ou.specVC[req.outVC].Clear(in)
		if !ou.specVC[req.outVC].Any() {
			ou.specVCAny &^= 1 << uint(req.outVC)
		}
	} else {
		ou.nonspec.Clear(in)
	}
	last := len(ou.pending) - 1
	if idx != last {
		moved := ou.pending[last]
		ou.pending[idx] = moved
		r.ins[moved].reqAt = int32(idx)
	}
	ou.pending = ou.pending[:last]
}

// issueRequests runs the per-input round-robin arbiters (SA1). An input
// issues at most one request and only when it has none outstanding and
// its port will be free by the time a grant could start traversal.
func (r *baseline) issueRequests(now int64) {
	v := r.cfg.VCs
	horizon, inPort, inVC := now+reqWireDelay+grantWireDelay+stStartDelay, r.InPort, r.InVC
	// Withdraw requests stuck at congested outputs so the input arbiter
	// can serve another VC (the per-cycle re-selection real request
	// wires get for free). The due bucket holds the inputs that issued
	// exactly reqTimeout cycles ago, in their original issue order; an
	// entry whose request has since resolved (and possibly reissued) is
	// recognized by its issuedAt and skipped. If the request just left
	// the output's pending set this cycle, the withdrawal misses and
	// the in-flight response resolves it instead.
	r.withdrawAt.PopDue(now, func(due []int32) {
		for _, i32 := range due {
			i := int(i32)
			st := &r.ins[i]
			if !r.outst.Get(i) || st.issuedAt != now-reqTimeout {
				continue
			}
			// An input's bit is unique router-wide, so it is set in its
			// output's request sets exactly while the request is pending.
			ou := &r.outs[st.out]
			if ou.nonspec.Get(i) || ou.spec.Get(i) {
				r.removePending(ou, int(st.reqAt))
				r.outst.Clear(i)
			}
			if len(ou.pending) == 0 {
				r.outPending.Clear(int(st.out))
			}
		}
	})
	outst := r.outst.Words()
	for wi, iw := range r.In.Occupied().Words() {
		for iw &^= outst[wi]; iw != 0; iw &= iw - 1 {
			i := wi<<6 | bits.TrailingZeros64(iw)
			if !inPort.Free(i, horizon) {
				continue
			}
			var w uint64
			fronts := r.In.Fronts(i)
			for c := 0; c < v; c++ {
				if now > fronts[c].Inj {
					w |= 1 << uint(c)
				}
			}
			if w == 0 {
				continue
			}
			c := inVC.Arbitrate(i, w)
			fm := &fronts[c]
			st := &r.ins[i]
			*st = blInput{issuedAt: now, pkt: fm.Pkt, vc: int32(c), out: fm.Dst, outVC: int32(fm.OutVC)}
			if fm.Head && fm.OutVC < 0 {
				st.spec = true
				switch r.cfg.SpecPolicy {
				case SpecFixed:
					st.outVC = 0
				case SpecHash:
					st.outVC = int32(int(fm.Pkt) % v)
				default: // SpecRotate: adapt after every NACK (Section 4.4)
					st.outVC = int32(int(fm.Rot) % v)
				}
			}
			r.outst.Set(i)
			r.withdrawAt.Schedule(now+reqTimeout, int32(i))
			r.reqWire.Schedule(now+reqWireDelay, int32(i))
		}
	}
}
