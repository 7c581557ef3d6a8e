package network

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/sim"
)

// Engine index widths. Buffered and in-flight flits are 32-byte records
// with narrow port, VC and terminal fields, and credits are 4-byte queue
// indices, which bounds what a topology may ask of one engine;
// CheckLimits turns an oversize topology into an error before any
// engine is built.
const (
	// MaxPorts bounds ports per router (slot.route is 16 bits).
	MaxPorts = 1 << 16
	// MaxVCs bounds virtual channels per port (slot.routeVC is 8 bits).
	MaxVCs = 1 << 8
	// MaxBufDepth bounds the per-(port, VC) buffer depth (queue fill
	// counts are 16 bits).
	MaxBufDepth = 1<<16 - 1
	// MaxQueues bounds Routers*Ports*VCs and Terminals*VCs (queue,
	// credit and terminal indices are 32 bits).
	MaxQueues = math.MaxInt32
)

// CheckLimits reports whether topo fits the engine's index widths.
func CheckLimits(topo Topology) error {
	p, v := int64(topo.Ports()), int64(topo.VCs())
	for _, l := range []struct {
		what     string
		got, max int64
	}{
		{"ports per router", p, MaxPorts},
		{"VCs per port", v, MaxVCs},
		{"flits of buffer depth", int64(topo.BufDepth()), MaxBufDepth},
		{"input queues (routers x ports x VCs)", int64(topo.Routers()) * p * v, MaxQueues},
		{"injection channels (terminals x VCs)", int64(topo.Terminals()) * v, MaxQueues},
	} {
		if l.got > l.max {
			return fmt.Errorf("network: %s topology has %d %s; the engine supports at most %d",
				topo.Name(), l.got, l.what, l.max)
		}
	}
	return nil
}

// Flit kind bits, cached beside a buffered flit so allocation never
// dereferences it (head and tail are immutable for a flit's lifetime).
const (
	kindHead uint8 = 1 << iota
	kindTail
)

// hdr is a flit as the engine carries it between injection and
// ejection: the pointer it will hand back, plus the fields routing and
// allocation read, copied out once at Inject so that no hop ever
// dereferences the flit (PacketID and Dst are immutable in flight; the
// hop count is written back on ejection).
type hdr struct {
	f    *flit.Flit
	pkt  uint64
	dst  int32
	hops uint32
}

// slot is one buffered flit: its header, the input port it sits at, the
// output port and downstream VC stamped when it landed, and its
// head/tail bits.
type slot struct {
	hdr
	port    uint16
	route   uint16
	routeVC uint8
	kind    uint8
}

// inQueue is the fill of one input buffer plus the routing choice of
// the packet currently arriving in it: a head's choice is relayed to
// the body flits landing behind it, and each flit's slot is stamped at
// land time, so a queued flit keeps its own choice even after a later
// head overwrites route and vc here.
type inQueue struct {
	n     uint16
	route uint16
	vc    uint8
}

// outVC is the state of one outgoing channel VC.
type outVC struct {
	// owner is the packet holding the channel VC between head and tail
	// (wormhole flow control: flits of different packets must not
	// interleave on one link VC); 0 is free.
	owner uint64
	// credit counts free slots in the downstream buffer; ejection
	// channels are uncounted.
	credit int32
}

// arrival is a flit in flight toward input buffer (router, port, vc).
type arrival struct {
	hdr
	router int32 // global router id
	port   uint16
	vc     uint8
	kind   uint8
}

// creditMsg returns a buffer slot upstream: a value >= 0 is the local
// outVC index it replenishes, a value < 0 is the complement of the
// injection-credit index terminal*VCs+vc.
type creditMsg int32

// XKind tags a cross-shard message.
type XKind uint8

const (
	// XFlit is a flit crossing a shard boundary toward a remote input
	// buffer.
	XFlit XKind = iota
	// XCredit is a freed-slot credit returning to a remote output.
	XCredit
)

// Xmsg is one cross-shard event, produced into a shard's outbox during
// an epoch and pulled into the owning shard's calendars at the barrier:
// an XFlit is the arrival record itself, header included, so a flit in
// transit is never dereferenced; an XCredit replenishes outgoing channel
// VC (router, port, vc). A message carries no sort key: Step emits a
// cycle's flits by ascending router and output port, so outboxes read in
// ascending shard order already list every arrival cycle's flits in the
// order a serial run schedules them in, and credits are counter
// increments, which commute.
type Xmsg struct {
	At   int64
	Kind XKind
	arrival
}

// Dst returns the input buffer (XFlit) or outgoing channel VC (XCredit)
// the message is addressed to.
func (m *Xmsg) Dst() (router, port, vc int) { return int(m.router), int(m.port), int(m.vc) }

// Network is the topology-agnostic input-queued engine: per-VC input
// buffers, credit-based flow control, wormhole link-VC ownership, and
// a single-iteration rotating-priority output allocation per router —
// the simplified network-scale router model of the paper's Section 7.
//
// A Network owns the contiguous router range [lo, hi). The serial
// driver owns [0, Routers()); shard workers each own a slice of it.
// Events bound for routers outside the range accumulate in an outbox
// (TakeOutbox) instead of a local calendar, and remote events enter
// through PutRemote.
//
// All state lives in flat banks over the owned routers (DESIGN.md,
// "Network engine memory layout"). With lr = r-lo the local router id:
//
//	q = (lr*ports+port)*VCs+vc   input queues and outgoing channel VCs
//	o = lr*ports+port            output ports
//	t*VCs+vc                     injection credits of terminal t
type Network struct {
	topo Topology
	seed uint64
	lo   int
	hi   int

	n     int // terminals
	v     int // VCs
	ports int
	depth int
	ser   int64
	hop   int64
	cd    int64

	// Input queue q is a FIFO of inq[q].n flits: front[q], then
	// rest[q*(depth-1):] in order. Allocation reads only the dense front
	// bank; rest is touched when a queue holds more than one flit.
	front []slot
	rest  []slot
	inq   []inQueue
	// out[q] is outgoing channel VC (output port, vc) of a router.
	out []outVC
	// outFree[o] is the cycle output o's channel finishes serializing.
	outFree []int64
	// outPtr[o] is the rotating allocation pointer of output o over
	// flat (port*VCs+vc) requester indices.
	outPtr []int32
	// links[o] and feeders[o] cache topo.Link and topo.Feeder.
	links, feeders []Link
	// injCredit[t*VCs+vc] counts free slots in the entry buffer fed by
	// terminal t; nonzero only for terminals entering [lo, hi).
	injCredit []int32

	// The barrier merge schedules remote arrivals and credits out of
	// order relative to local ones.
	arrivals *sim.Calendar[arrival]
	credits  *sim.Calendar[creditMsg]
	toTerm   *sim.Calendar[*flit.Flit] // exit wires, ser cycles long

	// The request matrix, maintained as queue fronts change so that Step
	// visits only outputs somebody wants (O(active) per cycle): bit fi of
	// row want[o*reqW:][:reqW] is set while the front flit of input queue
	// lr*ports*VCs+fi is routed to output o; bit `port` of
	// wanted[lr*outW:][:outW] while output o's row is nonzero; act marks
	// routers with any wanted output, i.e. any buffered flit.
	want     []uint64
	wanted   []uint64
	reqW     int
	outW     int
	act      arb.BitVec
	buffered int
	// exposed collects the queues whose next flit reached the front
	// during a router's grants; they join the matrix after them.
	exposed []int32

	outbox []Xmsg
	// outFlits counts XFlit entries in the outbox: flits that have left
	// this shard but are not yet in any calendar. They are in flight from
	// the whole run's point of view, so InFlight must include them or the
	// sharded drain-exit checks would see an emptier network than the
	// serial run does.
	outFlits int
	ejected  []*flit.Flit
}

// NewNetwork builds a full serial network over topo.
func NewNetwork(topo Topology, seed uint64) *Network {
	return NewNetworkRange(topo, seed, 0, topo.Routers())
}

// NewNetworkRange builds an engine owning routers [lo, hi) of topo.
// seed drives routing; every shard of one run must use the same value.
// The topology must satisfy CheckLimits (Options.Topology checks it for
// both drivers); building an engine over one that does not is a caller
// bug and panics.
func NewNetworkRange(topo Topology, seed uint64, lo, hi int) *Network {
	if err := CheckLimits(topo); err != nil {
		panic(err)
	}
	p, v, depth := topo.Ports(), topo.VCs(), topo.BufDepth()
	routers := hi - lo
	span := max(topo.HopDelay()+2, topo.CreditDelay()+1)
	nq := routers * p * v
	nw := &Network{
		topo: topo, seed: seed, lo: lo, hi: hi,
		n: topo.Terminals(), v: v, ports: p, depth: depth,
		ser: int64(topo.SerCycles()), hop: int64(topo.HopDelay()), cd: int64(topo.CreditDelay()),
		front:     make([]slot, nq),
		rest:      make([]slot, nq*(depth-1)),
		inq:       make([]inQueue, nq),
		out:       make([]outVC, nq),
		outFree:   make([]int64, routers*p),
		outPtr:    make([]int32, routers*p),
		links:     make([]Link, routers*p),
		feeders:   make([]Link, routers*p),
		injCredit: make([]int32, topo.Terminals()*v),
		arrivals:  sim.NewCalendar[arrival](span, 0),
		credits:   sim.NewCalendar[creditMsg](span, 0),
		toTerm:    sim.NewCalendar[*flit.Flit](topo.SerCycles(), 0),
		// An empty range (a shard of zero routers, legal when workers
		// exceed routers) still needs a nonempty activity vector: BitVecs
		// reject zero sizes, and a one-bit vector that never sets is free.
		act:  arb.MakeBitVec(max(routers, 1)),
		reqW: (p*v + 63) / 64,
		outW: (p + 63) / 64,
	}
	nw.want = make([]uint64, routers*p*nw.reqW)
	nw.wanted = make([]uint64, routers*nw.outW)
	for o := range nw.links {
		r, pt := lo+o/p, o%p
		nw.links[o] = topo.Link(r, pt)
		nw.feeders[o] = topo.Feeder(r, pt)
		if nw.links[o].Router >= 0 {
			for c := 0; c < v; c++ {
				nw.out[o*v+c].credit = int32(depth)
			}
		}
	}
	for t := 0; t < nw.n; t++ {
		if er, _ := topo.Entry(t); nw.Owns(er) {
			for c := 0; c < v; c++ {
				nw.injCredit[t*v+c] = int32(depth)
			}
		}
	}
	return nw
}

// Terminals returns the endpoint count.
func (nw *Network) Terminals() int { return nw.n }

// Owns reports whether router r lies in this engine's range.
func (nw *Network) Owns(r int) bool { return r >= nw.lo && r < nw.hi }

// CanAccept reports whether terminal src can send a flit on vc. Only
// valid for terminals whose entry router this engine owns. With Accept
// it makes the engine a drive.Device.
func (nw *Network) CanAccept(src, vc int) bool { return nw.injCredit[src*nw.v+vc] > 0 }

// flitArrival builds the in-flight record of f toward (router, port,
// vc), reading the flit's header fields.
func flitArrival(f *flit.Flit, router, port, vc int) arrival {
	a := arrival{
		hdr:    hdr{f: f, pkt: f.PacketID, dst: int32(f.Dst), hops: uint32(f.Hops)},
		router: int32(router), port: uint16(port), vc: uint8(vc),
	}
	if f.Head {
		a.kind |= kindHead
	}
	if f.Tail {
		a.kind |= kindTail
	}
	return a
}

// Accept launches a flit from terminal f.Src on virtual channel f.VC.
// The caller enforces the terminal channel's serialization rate. The
// entry router is always local (sources live with their shard).
func (nw *Network) Accept(now int64, f *flit.Flit) {
	ic := &nw.injCredit[f.Src*nw.v+f.VC]
	if *ic <= 0 {
		panic("network: injection without credit")
	}
	*ic--
	f.InjectedAt = now
	r, p := nw.topo.Entry(f.Src)
	nw.arrivals.Schedule(now+nw.hop+1, flitArrival(f, r, p, f.VC))
}

// Ejected returns flits delivered to terminals during the last Step,
// sorted by destination terminal; the slice is reused across steps.
// The sort makes delivery order canonical per cycle (at most one
// delivery per terminal per cycle, by the ejection serializer), which
// both the serial and sharded drivers rely on for identical statistics
// accumulation order.
func (nw *Network) Ejected() []*flit.Flit { return nw.ejected }

// InFlight counts flits inside the network. The buffered count is
// maintained as flits land and drain, so this never walks the grid.
func (nw *Network) InFlight() int {
	return nw.arrivals.Len() + nw.toTerm.Len() + nw.buffered + nw.outFlits
}

// Quiescent reports that Step is a provable no-op until new traffic is
// injected or merged in: no flit is buffered, on a wire, or
// serializing toward a terminal, and no credit is in flight (a
// draining credit mutates counters, so a cycle with pending credits
// may not be skipped).
func (nw *Network) Quiescent() bool {
	return nw.buffered == 0 && nw.arrivals.Len() == 0 &&
		nw.toTerm.Len() == 0 && nw.credits.Len() == 0
}

// NextWake returns a lower bound (>= now+1) on the next cycle at which
// Step can change state absent new injections, or sim.NoWake when the
// engine is empty forever. Buffered flits drive allocation every
// cycle; otherwise the earliest calendar event is exact.
func (nw *Network) NextWake(now int64) int64 {
	if nw.buffered > 0 {
		return now + 1
	}
	return max(now+1, min(nw.arrivals.NextAt(), nw.toTerm.NextAt(), nw.credits.NextAt()))
}

// TakeOutbox returns the cross-shard events produced since the last
// call and resets the outbox. The caller must finish with the slice
// before the next Step on this engine.
func (nw *Network) TakeOutbox() []Xmsg {
	out := nw.outbox
	nw.outbox = nw.outbox[:0]
	nw.outFlits = 0
	return out
}

// queue returns the flat index of (router, port, vc) for an owned
// router.
func (nw *Network) queue(router, port, vc int) int {
	return ((router-nw.lo)*nw.ports+port)*nw.v + vc
}

// PutRemote schedules, in order, the messages of another engine's outbox
// that are addressed to routers this engine owns. Called between epochs
// only (never concurrently with either engine's Step).
func (nw *Network) PutRemote(ms []Xmsg) {
	for i := range ms {
		switch m := &ms[i]; {
		case !nw.Owns(int(m.router)):
		case m.Kind == XFlit:
			nw.arrivals.Schedule(m.At, m.arrival)
		default:
			nw.credits.Schedule(m.At, creditMsg(nw.queue(m.Dst())))
		}
	}
}

// land places arrived flits into their input buffers, computing the
// packet's next hop when the flit is a head. The route key is a pure
// hash of (seed, packet, router), so the choice is identical whichever
// shard evaluates it.
func (nw *Network) land(as []arrival) {
	for i := range as {
		a := &as[i]
		r, port, vc := int(a.router), int(a.port), int(a.vc)
		lr := r - nw.lo
		fi := port*nw.v + vc
		q := lr*nw.ports*nw.v + fi
		in := &nw.inq[q]
		if a.kind&kindHead != 0 {
			np, nvc := nw.topo.NextHop(r, port, int(a.dst), vc, routeKey(nw.seed, a.pkt, r))
			in.route, in.vc = uint16(np), uint8(nvc)
		}
		s := slot{hdr: a.hdr, port: a.port, route: in.route, routeVC: in.vc, kind: a.kind}
		switch n := int(in.n); {
		case n == 0:
			nw.front[q] = s
			nw.request(lr, int(s.route), fi)
			nw.act.Set(lr)
		case n < nw.depth:
			nw.rest[q*(nw.depth-1)+n-1] = s
		default:
			panic("network: input buffer overflow (credit accounting bug)")
		}
		in.n++
	}
	nw.buffered += len(as)
}

// request enters queue fi of router lr, whose front flit is routed to
// output port out, into the request matrix.
func (nw *Network) request(lr, out, fi int) {
	nw.want[(lr*nw.ports+out)*nw.reqW+fi>>6] |= 1 << (fi & 63)
	nw.wanted[lr*nw.outW+out>>6] |= 1 << (out & 63)
}

func allZero(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return false
		}
	}
	return true
}

func (nw *Network) applyCredits(cs []creditMsg) {
	for _, c := range cs {
		if c < 0 {
			nw.injCredit[^c]++
		} else {
			nw.out[c].credit++
		}
	}
}

// Step advances the owned routers one cycle.
func (nw *Network) Step(now int64) {
	nw.ejected = nw.ejected[:0]
	nw.credits.PopDue(now, nw.applyCredits)
	nw.arrivals.PopDue(now, nw.land)
	nw.toTerm.PopDue(now, func(fs []*flit.Flit) { nw.ejected = append(nw.ejected, fs...) })
	if len(nw.ejected) > 1 {
		slices.SortFunc(nw.ejected, func(a, b *flit.Flit) int { return cmp.Compare(a.Dst, b.Dst) })
	}

	v, ports, reqW := nw.v, nw.ports, nw.reqW
	flat := ports * v
	for lr := nw.act.Next(0); lr >= 0; lr = nw.act.Next(lr + 1) {
		obase, qbase := lr*ports, lr*flat
		wanted := nw.wanted[lr*nw.outW:][:nw.outW]
		exposed := nw.exposed[:0]
		// Single-iteration separable allocation: every wanted output
		// whose channel is free grants one requester. A queue whose next
		// flit reaches the front here requests from the next cycle on.
		for wi, w := range wanted {
			for ; w != 0; w &= w - 1 {
				out := wi<<6 + bits.TrailingZeros64(w)
				o := obase + out
				if nw.outFree[o] > now {
					continue
				}
				link := nw.links[o]
				eject := link.Router < 0
				row := nw.want[o*reqW:][:reqW]
				best := nw.arbitrate(row, int(nw.outPtr[o]), qbase, o*v, eject)
				if best < 0 {
					continue
				}
				q := qbase + best
				s := nw.front[q]
				if row[best>>6] &^= 1 << (best & 63); allZero(row) {
					wanted[wi] &^= 1 << (out & 63)
				}
				// Vacated slots keep their stale flit pointers: flits are
				// recycled through the sources' free lists, never
				// collected mid-run.
				if in := &nw.inq[q]; in.n > 1 {
					in.n--
					rest := nw.rest[q*(nw.depth-1):][:in.n]
					nw.front[q] = rest[0]
					copy(rest, rest[1:])
					exposed = append(exposed, int32(best))
				} else {
					in.n = 0
				}
				nw.buffered--
				if best+1 == flat {
					nw.outPtr[o] = 0
				} else {
					nw.outPtr[o] = int32(best + 1)
				}
				nw.outFree[o] = now + nw.ser
				p := int(s.port)
				c := best - p*v
				nw.sendCreditUpstream(now, lr, p, c)
				ovc := int(s.routeVC)
				ch := &nw.out[o*v+ovc]
				switch s.kind {
				case kindHead:
					ch.owner = s.pkt
				case kindTail:
					ch.owner = 0
				}
				s.hops++
				if eject {
					// The exit wire must be the destination terminal
					// (routing invariant); the packet pays serialization
					// once (Eq. 1). The flit gets back what it would
					// have accumulated hop by hop: its count and last VC.
					if link.Terminal != int(s.dst) {
						panic("network: routing delivered flit to wrong terminal")
					}
					s.f.Hops, s.f.VC = int(s.hops), c
					nw.toTerm.Schedule(now+nw.ser, s.f)
					continue
				}
				ch.credit--
				at := now + nw.hop + 1
				a := arrival{hdr: s.hdr, router: int32(link.Router), port: uint16(link.Port), vc: uint8(ovc), kind: s.kind}
				if nw.Owns(link.Router) {
					nw.arrivals.Schedule(at, a)
				} else {
					nw.outbox = append(nw.outbox, Xmsg{At: at, Kind: XFlit, arrival: a})
					nw.outFlits++
				}
			}
		}
		for _, fi := range exposed {
			nw.request(lr, int(nw.front[qbase+int(fi)].route), int(fi))
		}
		nw.exposed = exposed
		if allZero(wanted) {
			nw.act.Clear(lr)
		}
	}
}

// arbitrate returns the first eligible requester of an output's request
// row in rotating-priority order from ptr, or -1. chbase indexes the
// output's channel VCs; qbase the router's input queues.
func (nw *Network) arbitrate(row []uint64, ptr, qbase, chbase int, eject bool) int {
	// The walk starts in ptr's word masked to bits >= ptr, wraps through
	// the whole words, and ends in the same word masked to bits < ptr.
	for k, wi := 0, ptr>>6; k <= len(row); k++ {
		w := row[wi]
		switch k {
		case 0:
			w &= ^uint64(0) << (ptr & 63)
		case len(row):
			w &= 1<<(ptr&63) - 1
		}
		for ; w != 0; w &= w - 1 {
			fi := wi<<6 + bits.TrailingZeros64(w)
			s := &nw.front[qbase+fi]
			ch := &nw.out[chbase+int(s.routeVC)]
			if !eject && ch.credit <= 0 {
				continue
			}
			// Wormhole link-VC ownership: a head flit needs the channel
			// VC free; body flits must own it. This is what keeps
			// packets from interleaving on a link.
			if s.kind&kindHead != 0 {
				if ch.owner != 0 {
					continue
				}
			} else if ch.owner != s.pkt {
				continue
			}
			return fi
		}
		if wi++; wi == len(row) {
			wi = 0
		}
	}
	return -1
}

// sendCreditUpstream routes the freed slot of input buffer (lr, p, c)
// back to the output (or terminal) that feeds it. Terminal feeders are
// always local (the terminal's entry router is this router); remote
// router feeders go through the outbox.
func (nw *Network) sendCreditUpstream(now int64, lr, p, c int) {
	fd := nw.feeders[lr*nw.ports+p]
	at := now + nw.cd
	switch {
	case fd.Router < 0:
		nw.credits.Schedule(at, ^creditMsg(fd.Terminal*nw.v+c))
	case nw.Owns(fd.Router):
		nw.credits.Schedule(at, creditMsg(nw.queue(fd.Router, fd.Port, c)))
	default:
		nw.outbox = append(nw.outbox, Xmsg{
			At: at, Kind: XCredit,
			arrival: arrival{router: int32(fd.Router), port: uint16(fd.Port), vc: uint8(c)},
		})
	}
}
