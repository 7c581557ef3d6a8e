package router

import (
	"highradix/internal/arb"
	"highradix/internal/router/core"
)

func init() {
	Register(ArchVOQ, Descriptor{
		Name:      "voq",
		Build:     func(cfg Config) Router { return newVOQ(cfg) },
		GrantNote: "switch",
		Validate:  validateXpointDepth,
		Variants: func(radix, vcs int) []Variant {
			base := Config{Arch: ArchVOQ, Radix: radix, VCs: vcs}
			iter2 := base
			iter2.AllocIters = 2
			return []Variant{
				{"voq", base},
				{"voq-iter2", iter2},
			}
		},
		BenchRadices: []int{64, 128, 256},
	})
}

// voq is a virtual-output-queued router in the style of the Tiny Tera
// packet switch (McKeown et al.): behind the per-VC input buffers, each
// input keeps one FIFO per output, and a centralized iSLIP scheduler
// computes a conflict-free input/output matching each cycle with a
// configurable number of grant/accept iterations (Config.AllocIters).
// VOQs eliminate the head-of-line blocking that caps the paper's
// single-request input-queued designs (Section 4.3) — at the cost of
// O(k^2) queues and a centralized scheduler whose wiring, like the
// low-radix router's centralized allocator, is exactly what the paper
// argues does not scale to high radix. The head-to-head against the
// distributed separable allocator is the point of carrying it.
//
// Datapath per flit: input VC buffer -> VOQ (one flit per input per
// cycle, credit-gated, depth XpointBufDepth) -> scheduler match ->
// output serializer (STCycles per flit). The VOQs are a buffer grid
// (column.go) of one shared FIFO per (input, output) pair, ledger note
// "voq", read by the scheduler instead of a column allocator. Packets
// stay wormhole-intact: the VOQ source-VC lock keeps one packet per VOQ
// in flight from the input side, and an output VC is allocated to the
// packet when its head flit wins the match (rotating scan over the
// output's free VCs).
type voq struct {
	cfg Config
	core.Base

	q      grid // [i*k + o]: VOQ (i, o), its credits labelled with the flit's input VC
	sched  *arb.ISLIP
	vcPick *arb.RotorBank // per output, over VCs: output VC allocation

	// lock[x] is the input VC feeding VOQ x a packet, taken by a head
	// flit and released by its tail (-1 between packets), so two packets
	// from different input VCs never interleave inside one VOQ — which
	// would deadlock the wormhole at the output side. outVC[x] is the
	// output VC of the packet draining from VOQ x's front, set when its
	// head is accepted and reset when its tail is; it persists while the
	// queue runs empty mid-packet, because the packet's remaining flits
	// still own the channel.
	lock  []int8
	outVC []int16

	// inBusy/outBusy mirror "InPort/OutPort not free at now" as bitsets so
	// the scheduler's request columns are built with word arithmetic.
	// They are reconciled lazily from the serializer timestamps at the
	// start of each Step — never by per-cycle expiry — so they stay
	// exact when a driver fast-forwards over quiescent cycles.
	inBusy  arb.BitVec
	outBusy arb.BitVec

	// scratch
	reqCols  []arb.BitVec // [output] over inputs, rebuilt each cycle
	outEl    *arb.BitVec  // eligible outputs, consumed by Match
	now      int64        // cycle of the in-progress Step, read by acceptFn
	acceptFn func(in, out int)
}

func newVOQ(cfg Config) *voq {
	k, v := cfg.Radix, cfg.VCs
	r := &voq{
		cfg:     cfg,
		Base:    core.MakeBase(core.Obs{O: cfg.Observer}, k, v, cfg.InputBufDepth, cfg.STCycles),
		sched:   arb.NewISLIP(k),
		vcPick:  arb.NewRotorBank(k, v),
		lock:    make([]int8, k*k),
		outVC:   make([]int16, k*k),
		inBusy:  arb.MakeBitVec(k),
		outBusy: arb.MakeBitVec(k),
		reqCols: arb.MakeBitVecs(k, k),
		outEl:   arb.NewBitVec(k),
	}
	r.q = makeGrid(&r.cfg, &r.Base, k, 1, cfg.XpointBufDepth, "voq")
	for x := range r.lock {
		r.lock[x] = -1
		r.outVC[x] = -1
	}
	r.acceptFn = func(in, out int) { r.accept(in, out) }
	return r
}

func (r *voq) Config() Config { return r.cfg }

// InFlight adds the VOQ occupancy to the base datapath's count.
func (r *voq) InFlight() int { return r.In.Buffered() + r.q.flits + r.Out.Len() }

// NextWake: buffered flits anywhere drive scheduling every cycle;
// otherwise only the ejection pipe holds timed state. Beyond the base
// datapath and the VOQs the router holds only serializer timestamps,
// scheduler rotation state (which moves only on grants) and the lazily
// reconciled busy bitsets (read only under VOQ occupancy), so an empty
// datapath means Step is a no-op.
func (r *voq) NextWake(now int64) int64 {
	if r.In.Buffered() > 0 || r.q.flits > 0 {
		return now + 1
	}
	return r.Out.NextWake()
}

func (r *voq) Step(now int64) {
	r.BeginCycle(now)
	r.reconcile(now)
	r.transmit(now)
	r.inputMove(now)
}

// reconcile clears busy bits whose serializer reservations have
// expired. O(set bits), and exact across skipped cycles because the
// serializer timestamps are absolute.
func (r *voq) reconcile(now int64) {
	inPort, outPort := r.InPort, r.OutPort
	for i := r.inBusy.Next(0); i >= 0; i = r.inBusy.Next(i + 1) {
		if inPort.Free(i, now) {
			r.inBusy.Clear(i)
		}
	}
	for o := r.outBusy.Next(0); o >= 0; o = r.outBusy.Next(o + 1) {
		if outPort.Free(o, now) {
			r.outBusy.Clear(o)
		}
	}
}

// transmit runs one scheduling cycle: build the request columns over
// the occupied VOQs, match with iSLIP, and send each matched VOQ front
// into switch traversal. It runs before inputMove so a flit entering a
// VOQ at cycle t is first schedulable at t+1 (one-cycle VOQ latency).
func (r *voq) transmit(now int64) {
	k := r.cfg.Radix
	r.outEl.Reset()
	for o := r.q.act.Next(0); o >= 0; o = r.q.act.Next(o + 1) {
		if r.outBusy.Get(o) {
			continue
		}
		req := &r.reqCols[o]
		req.CopyAndNot(&r.q.rowBits[o], &r.inBusy)
		if r.Owner.FreeMask(o) == 0 {
			// No free output VC: head flits cannot start. A head at a
			// VOQ front never holds one, since the packet ahead of it
			// has left, tail included.
			for i := req.Next(0); i >= 0; i = req.Next(i + 1) {
				if _, head := r.q.fronts(i*k + o); head != 0 {
					req.Clear(i)
				}
			}
		}
		if !req.Any() {
			continue
		}
		r.outEl.Set(o)
	}
	if !r.outEl.Any() {
		return
	}
	r.now = now
	r.sched.Match(r.cfg.AllocIters, r.reqCols, r.outEl, r.acceptFn)
}

// accept commits one matched (input, output) pair: allocate an output
// VC to a head flit, return the VOQ credit, and push the flit into
// switch traversal, reserving both serializers for STCycles.
func (r *voq) accept(i, o int) {
	now, st, x := r.now, r.cfg.STCycles, i*r.cfg.Radix+o
	f := r.q.pop(i, o, 0)
	if f.Head {
		// The eligibility mask guaranteed a free VC; the rotating pick
		// spreads packets across the output's VCs.
		ov := r.vcPick.Arbitrate(o, r.Owner.FreeMask(o))
		r.Owner.Acquire(o, ov, f.PacketID)
		r.outVC[x] = int16(ov)
	}
	ov := int(r.outVC[x])
	if f.Tail {
		r.outVC[x] = -1
	}
	// Return the credit under the flit's source coordinates — the same
	// (input, output, vc) label its spend used — before rewriting VC.
	r.q.credit.Return(now, x, i, o, f.VC)
	f.VC = ov
	r.InPort.Reserve(i, now, st)
	r.OutPort.Reserve(o, now, st)
	r.inBusy.Set(i)
	r.outBusy.Set(o)
	r.Obs.Emit(now, EvGrant, f, i, o, f.VC, "switch")
	r.Out.Push(now, o, f)
}

// inputMove advances at most one flit per input from its VC buffers
// into the VOQ for its output — the VOQ write port — picked by the
// input's VC round robin (InVC). A VC is eligible when its front flit
// has sat a cycle, the target VOQ has a credit, and the VOQ's source-VC
// lock admits it (free for head flits, held by this VC mid-packet).
func (r *voq) inputMove(now int64) {
	k, v, inVC := r.cfg.Radix, r.cfg.VCs, r.InVC
	for i := r.In.NextOccupied(0); i >= 0; i = r.In.NextOccupied(i + 1) {
		fronts := r.In.Fronts(i)
		var elig uint64
		for c := 0; c < v; c++ {
			fr := &fronts[c]
			if now <= fr.Inj {
				continue
			}
			x := i*k + int(fr.Dst)
			if !r.q.credit.Avail(x) {
				continue
			}
			if lock := r.lock[x]; lock >= 0 && int(lock) != c {
				continue
			}
			elig |= 1 << uint(c)
		}
		if elig == 0 {
			continue
		}
		c := inVC.Arbitrate(i, elig)
		f := r.In.Pop(i, c)
		x := i*k + f.Dst
		if f.Head {
			r.lock[x] = int8(c)
		}
		if f.Tail {
			r.lock[x] = -1
		}
		r.q.credit.Spend(now, x, i, f.Dst, f.VC)
		r.q.land(i, f)
	}
}
