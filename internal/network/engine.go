package network

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/sim"
)

// hopBits is the width of a flit's hop count, the low bits of the word
// whose upper bits hold its destination terminal (slot.dh, Arrival.dh).
const hopBits = 8

// Engine index widths. A buffered flit is a 24-byte record and a flit on
// a wire a 32-byte one, with narrow port, VC, terminal and hop fields;
// credits are 4-byte queue indices. That bounds what a topology may ask
// of one engine; CheckLimits turns an oversize topology into an error
// before any engine is built.
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
	// MaxTerminals bounds the terminal count (a flit's destination is
	// the upper 24 bits of its dh word).
	MaxTerminals = 1 << (32 - hopBits)
	// MaxHops bounds Topology.Diameter, the routers one route crosses (a
	// flit's hop count is the low 8 bits of its dh word).
	MaxHops = 1<<hopBits - 1
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
		{"terminals", int64(topo.Terminals()), MaxTerminals},
		{"routers on its longest route", int64(topo.Diameter()), MaxHops},
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

// A flit travels as a header copied out of it once, at Accept: the
// pointer the engine will hand back, plus the fields routing reads —
// its packet id and, in one word dh, its destination terminal above its
// hop count — so that no hop ever dereferences the flit (PacketID and
// Dst are immutable in flight; the hop count is written back on
// ejection). The header's fields open both records below.

// slot is one buffered flit (24 bytes): its header, the output port and
// downstream VC stamped when it landed, and its head/tail bits. The
// input port it sits at is its queue index's, fi/VCs.
type slot struct {
	f       *flit.Flit
	pkt     uint64
	dh      uint32
	route   uint16
	routeVC uint8
	kind    uint8
}

// Arrival is a flit on a wire toward input buffer (Router, Port, VC), 32
// bytes: what an engine's arrival calendar holds and, with At set, the
// mail that carries the flit to the engine owning that buffer.
type Arrival struct {
	f      *flit.Flit
	pkt    uint64
	dh     uint32
	Router int32
	Port   uint16
	VC     uint8
	kind   uint8
	// At is the low 32 bits of the cycle the flit lands in; set on mail
	// only (a calendar entry's bucket is its cycle).
	At uint32
}

// CreditMail is a freed buffer slot's credit crossing to the engine
// that owns the outgoing channel VC it replenishes, or that hosts the
// terminal it returns to (8 bytes).
type CreditMail struct {
	// Q is the channel VC's global index (router*Ports+port)*VCs+vc, or
	// the complement of the injection-credit index terminal*VCs+vc.
	Q int32
	// At is the low 32 bits of the cycle the credit applies in.
	At uint32
}

// Outbox is the mail one engine sends one other engine between two
// exchanges: the flits its terminals injected toward the other's
// routers, the flits its routers granted toward them, and credits. A
// message carries no sort key: sources inject in ascending terminal
// order and Step grants a cycle's flits by ascending router and output
// port, so outboxes read in ascending engine order — every Injected
// stream, then every Flits stream — list each arrival cycle's flits in
// the order a serial run schedules them in; credits are counter
// increments, which commute.
type Outbox struct {
	Injected, Flits []Arrival
	Credits         []CreditMail
}

// Layout places a network on engines: engine i owns the routers of
// Routers[i] and hosts the sources of the terminals of Terminals[i].
// Both are partitions of their index space into contiguous ranges in
// ascending order, one range per engine; a terminal's sources need not
// live with its entry router.
type Layout struct {
	Routers, Terminals [][2]int
}

// whole is the layout of a single engine.
func whole(topo Topology) Layout {
	return Layout{[][2]int{{0, topo.Routers()}}, [][2]int{{0, topo.Terminals()}}}
}

// part returns the index of the range of parts holding x.
func part(parts [][2]int, x int) int32 {
	return int32(slices.IndexFunc(parts, func(rg [2]int) bool { return x >= rg[0] && x < rg[1] }))
}

// widen recovers the cycle whose low 32 bits are at from a reference
// cycle within 2^31 of it.
func widen(at uint32, ref int64) int64 { return ref + int64(int32(at-uint32(ref))) }

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

// outVC is the state of one outgoing channel VC (8 bytes).
type outVC struct {
	// owner is 1 + the local input queue whose packet holds the channel
	// VC between head and tail (wormhole flow control: flits of different
	// packets must not interleave on one link VC); 0 is free. A queue
	// stands in for its packet because a packet's flits are contiguous
	// in one input queue: a body flit at the front of the queue that owns
	// the channel is a flit of the packet that does.
	owner int32
	// credit counts free slots in the downstream buffer; ejection
	// channels are uncounted.
	credit int32
}

// output is the state and wiring of one output port (24 bytes).
type output struct {
	// free is the cycle the channel finishes serializing.
	free int64
	// ptr is the rotating allocation pointer over flat (port*VCs+vc)
	// requester indices.
	ptr int32
	// to is the downstream router, or ^terminal for an ejection channel.
	to int32
	// box is the outbox of the engine owning router to, -1 when local.
	box int32
	// port is the downstream input port.
	port uint16
}

// feeder says where the credits of one input port's freed slots go
// (8 bytes): channel VC ch+vc of an upstream output (a local out index
// when box < 0, else a global one), or, for a terminal's entry port,
// injection credit ^(ch-vc) of ch = ^(t*VCs); box is the outbox of the
// engine owning the output or hosting the terminal, -1 when local.
type feeder struct {
	ch  int32
	box int32
}

// entry is where a hosted terminal's flits enter the network: its entry
// router and port, and the outbox of the engine owning that router, -1
// when local.
type entry struct {
	router int32
	box    int32
	port   uint16
}

// Network is the topology-agnostic input-queued engine: per-VC input
// buffers, credit-based flow control, wormhole link-VC ownership, and
// a single-iteration rotating-priority output allocation per router —
// the simplified network-scale router model of the paper's Section 7.
//
// A Network is one engine of a Layout: it owns a range of the routers
// and hosts the sources of a range of the terminals. The serial
// driver's engine owns and hosts everything; shard workers each own one
// range of several. Events bound for another engine's routers or
// terminals go to its Outbox (SetOutbox) instead of a local calendar,
// and remote events enter through PutFlits and PutCredits.
//
// All state lives in flat banks over the owned routers (DESIGN.md,
// "Network engine memory layout"). With lr = r-lo the local router id:
//
//	q = (lr*ports+port)*VCs+vc   input queues and outgoing channel VCs
//	o = lr*ports+port            output ports and input-port feeders
//	t*VCs+vc                     injection credits of terminal t
//	t-tlo                        entry ports of hosted terminal t
type Network struct {
	topo Topology
	seed uint64
	lo   int
	hi   int
	qlo  int // lo*ports*VCs: the global index of local queue 0

	n     int // terminals
	v     int // VCs
	ports int
	flat  int // ports*VCs
	depth int
	ser   int64
	hop   int64

	// Input queue q is a FIFO of inq[q].n flits: front[q], then
	// rest[q*(depth-1):] in order. Allocation reads only the dense front
	// bank; rest is touched when a queue holds more than one flit.
	front []slot
	rest  []slot
	inq   []inQueue
	// out[q] is outgoing channel VC (output port, vc) of a router,
	// outs[o] output port o and feeders[o] where input port o's credits
	// go.
	out     []outVC
	outs    []output
	feeders []feeder
	// injCredit[t*VCs+vc] counts free slots in the entry buffer fed by
	// terminal t; nonzero only for hosted terminals, [tlo, tlo+len(entry)),
	// whose flits enter at entry[t-tlo].
	injCredit []int32
	tlo       int
	entry     []entry

	// PutFlits and PutCredits schedule remote arrivals and credits out
	// of order relative to local ones.
	arrivals *sim.Calendar[Arrival]
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

	// outbox[b] receives the mail for engine b of the layout.
	outbox []Outbox
	// outFlits counts the flits mailed since SetOutbox: flits that have
	// left this engine but are not yet in any calendar. They are in
	// flight from the whole run's point of view, so InFlight must include
	// them or the sharded drain-exit checks would see an emptier network
	// than the serial run does. mailAt is the earliest cycle any mail
	// since SetOutbox takes effect in.
	outFlits int
	mailAt   int64
	ejected  []*flit.Flit
}

// creditMsg returns a buffer slot upstream: a value >= 0 is the local
// outVC index it replenishes, a value < 0 is the complement of the
// injection-credit index terminal*VCs+vc.
type creditMsg int32

// NewNetwork builds a full serial network over topo.
func NewNetwork(topo Topology, seed uint64) *Network {
	return NewNetworkRange(topo, seed, whole(topo), 0)
}

// NewNetworkRange builds engine i of layout l over topo; its mail for
// engine b goes to outbox b. seed drives routing; every engine of one
// run must use the same value. The topology must satisfy CheckLimits
// (Options.Topology checks it for both drivers); building an engine
// over one that does not is a caller bug and panics.
func NewNetworkRange(topo Topology, seed uint64, l Layout, i int) *Network {
	if err := CheckLimits(topo); err != nil {
		panic(err)
	}
	lo, hi := l.Routers[i][0], l.Routers[i][1]
	tlo, thi := l.Terminals[i][0], l.Terminals[i][1]
	p, v, depth := topo.Ports(), topo.VCs(), topo.BufDepth()
	routers := hi - lo
	span := max(topo.HopDelay()+2, creditDelay+1)
	nq := routers * p * v
	nw := &Network{
		topo: topo, seed: seed, lo: lo, hi: hi, qlo: lo * p * v,
		n: topo.Terminals(), v: v, ports: p, flat: p * v, depth: depth,
		ser: int64(topo.SerCycles()), hop: int64(topo.HopDelay()),
		front:     make([]slot, nq),
		rest:      make([]slot, nq*(depth-1)),
		inq:       make([]inQueue, nq),
		out:       make([]outVC, nq),
		outs:      make([]output, routers*p),
		feeders:   make([]feeder, routers*p),
		injCredit: make([]int32, topo.Terminals()*v),
		tlo:       tlo,
		entry:     make([]entry, thi-tlo),
		arrivals:  sim.NewCalendar[Arrival](span, 0),
		credits:   sim.NewCalendar[creditMsg](span, 0),
		toTerm:    sim.NewCalendar[*flit.Flit](topo.SerCycles(), 0),
		// An empty range (a shard of zero routers, legal when workers
		// exceed routers) still needs a nonempty activity vector: BitVecs
		// reject zero sizes, and a one-bit vector that never sets is free.
		act:    arb.MakeBitVec(max(routers, 1)),
		reqW:   (p*v + 63) / 64,
		outW:   (p + 63) / 64,
		mailAt: sim.NoWake,
	}
	nw.want = make([]uint64, routers*p*nw.reqW)
	nw.wanted = make([]uint64, routers*nw.outW)
	// box names the outbox for a partition index: -1 for this engine.
	box := func(b int32) int32 {
		if b == int32(i) {
			return -1
		}
		return b
	}
	// The topology states its wiring once, as Link and Entry; an owned
	// input port's feeder, where its credits go, is the one output or
	// terminal whose wire ends there, found by inverting both. Walked in
	// (router, port) order, the ejection links' terminals must strictly
	// increase: that is the order Step delivers in (Ejected).
	fed := make([]int, routers*p)
	lastTerm := -1
	feed := func(r, pt int, fd feeder) {
		if nw.Owns(r) {
			nw.feeders[(r-lo)*p+pt] = fd
			fed[(r-lo)*p+pt]++
		}
	}
	for r := range topo.Routers() {
		for pt := range p {
			ln := topo.Link(r, pt)
			if ln.Router < 0 {
				if ln.Terminal <= lastTerm {
					panic(fmt.Sprintf("network: %s router %d port %d ejects to terminal %d after terminal %d", topo.Name(), r, pt, ln.Terminal, lastTerm))
				}
				lastTerm = ln.Terminal
			}
			if nw.Owns(r) {
				o := (r-lo)*p + pt
				if ln.Router < 0 {
					nw.outs[o] = output{to: ^int32(ln.Terminal), box: -1}
					continue
				}
				nw.outs[o] = output{to: int32(ln.Router), port: uint16(ln.Port), box: box(part(l.Routers, ln.Router))}
				for c := 0; c < v; c++ {
					nw.out[o*v+c].credit = int32(depth)
				}
				feed(ln.Router, ln.Port, feeder{ch: int32(nw.queue(r, pt, 0)), box: -1})
			} else if ln.Router >= 0 && nw.Owns(ln.Router) {
				feed(ln.Router, ln.Port, feeder{ch: int32((r*p + pt) * v), box: box(part(l.Routers, r))})
			}
		}
	}
	for t := range nw.n {
		er, ep := topo.Entry(t)
		feed(er, ep, feeder{ch: ^int32(t * v), box: box(part(l.Terminals, t))})
		if t >= tlo && t < thi {
			nw.entry[t-tlo] = entry{router: int32(er), port: uint16(ep), box: box(part(l.Routers, er))}
			for c := 0; c < v; c++ {
				nw.injCredit[t*v+c] = int32(depth)
			}
		}
	}
	// An input fed by no wire, or by two, is a topology bug: its credits
	// would have nowhere to go, or two places.
	for o, n := range fed {
		if n != 1 {
			panic(fmt.Sprintf("network: %s router %d input port %d is fed %d times", topo.Name(), lo+o/p, o%p, n))
		}
	}
	return nw
}

// Terminals returns the endpoint count.
func (nw *Network) Terminals() int { return nw.n }

// Owns reports whether router r lies in this engine's range.
func (nw *Network) Owns(r int) bool { return r >= nw.lo && r < nw.hi }

// CanAccept reports whether terminal src can send a flit on vc. Only
// valid for terminals this engine hosts. With Accept it makes the
// engine a drive.Device.
func (nw *Network) CanAccept(src, vc int) bool { return nw.injCredit[src*nw.v+vc] > 0 }

// Accept launches a flit from hosted terminal f.Src on virtual channel
// f.VC toward its entry router, which another engine may own. The
// caller enforces the terminal channel's serialization rate. The flit's
// hop count starts from zero.
func (nw *Network) Accept(now int64, f *flit.Flit) {
	ic := &nw.injCredit[f.Src*nw.v+f.VC]
	if *ic <= 0 {
		panic("network: injection without credit")
	}
	*ic--
	f.InjectedAt = now
	e := nw.entry[f.Src-nw.tlo]
	a := Arrival{f: f, pkt: f.PacketID, dh: uint32(f.Dst) << hopBits, Router: e.router, Port: e.port, VC: uint8(f.VC)}
	if f.Head {
		a.kind |= kindHead
	}
	if f.Tail {
		a.kind |= kindTail
	}
	at := now + nw.hop + 1
	if e.box < 0 {
		nw.arrivals.Schedule(at, a)
		return
	}
	a.At = uint32(at)
	box := &nw.outbox[e.box]
	box.Injected = append(box.Injected, a)
	nw.outFlits++
	nw.mail(at)
}

// Ejected returns flits delivered to terminals during the last Step,
// in ascending destination terminal; the slice is reused across steps.
// The order is canonical per cycle (at most one delivery per terminal
// per cycle, by the ejection serializer), which both the serial and
// sharded drivers rely on for identical statistics accumulation order.
// The order holds by construction: one cycle's deliveries all left in
// one Step, which grants in ascending (router, output port) order, and
// NewNetworkRange refuses a topology whose ejection links do not number
// their terminals in that order.
func (nw *Network) Ejected() []*flit.Flit { return nw.ejected }

// InFlight counts flits inside the network. The buffered count is
// maintained as flits land and drain, so this never walks the grid.
func (nw *Network) InFlight() int {
	return nw.arrivals.Len() + nw.toTerm.Len() + nw.buffered + nw.outFlits
}

// NextWake returns a lower bound (>= now+1) on the next cycle at which
// Step can change state absent new injections, or sim.NoWake when Step
// is a provable no-op until new traffic is injected or merged in: no
// flit is buffered, on a wire, or serializing toward a terminal, and no
// credit is in flight (a draining credit mutates counters). Buffered
// flits drive allocation every cycle; otherwise the earliest calendar
// event is exact. Mail sent since SetOutbox is not counted (MailAt is).
func (nw *Network) NextWake(now int64) int64 {
	if nw.buffered > 0 {
		return now + 1
	}
	return max(now+1, min(nw.arrivals.NextAt(), nw.toTerm.NextAt(), nw.credits.NextAt()))
}

// SetOutbox empties boxes, one per engine of the layout, and directs
// into them the mail of the Accepts and Steps that follow. The caller
// must not read boxes while this engine runs.
func (nw *Network) SetOutbox(boxes []Outbox) {
	for b := range boxes {
		bx := &boxes[b]
		bx.Injected, bx.Flits, bx.Credits = bx.Injected[:0], bx.Flits[:0], bx.Credits[:0]
	}
	nw.outbox, nw.outFlits, nw.mailAt = boxes, 0, sim.NoWake
}

// MailAt returns the earliest cycle any mail sent since SetOutbox takes
// effect in, sim.NoWake when there is none.
func (nw *Network) MailAt() int64 { return nw.mailAt }

// queue returns the flat index of (router, port, vc) for an owned
// router.
func (nw *Network) queue(router, port, vc int) int {
	return ((router-nw.lo)*nw.ports+port)*nw.v + vc
}

// PutFlits and PutCredits schedule, in order, flits and credits another
// engine mailed this one. now is a cycle within 2^31 of every message's
// (the exchange's). Called between epochs only (never concurrently with
// this engine running or the sender's).
func (nw *Network) PutFlits(as []Arrival, now int64) {
	for _, a := range as {
		nw.arrivals.Schedule(widen(a.At, now), a)
	}
}

func (nw *Network) PutCredits(cs []CreditMail, now int64) {
	for _, c := range cs {
		q := int(c.Q)
		if q >= 0 {
			q -= nw.qlo
		}
		nw.credits.Schedule(widen(c.At, now), creditMsg(q))
	}
}

// land places arrived flits into their input buffers, computing the
// packet's next hop when the flit is a head. The route key is a pure
// hash of (seed, packet, router), so the choice is identical whichever
// shard evaluates it.
func (nw *Network) land(as []Arrival) {
	for i := range as {
		a := &as[i]
		r, port, vc := int(a.Router), int(a.Port), int(a.VC)
		lr := r - nw.lo
		fi := port*nw.v + vc
		q := lr*nw.flat + fi
		in := &nw.inq[q]
		if a.kind&kindHead != 0 {
			np, nvc := nw.topo.NextHop(r, port, int(a.dh>>hopBits), vc, routeKey(nw.seed, a.pkt, r))
			in.route, in.vc = uint16(np), uint8(nvc)
		}
		s := slot{f: a.f, pkt: a.pkt, dh: a.dh, route: in.route, routeVC: in.vc, kind: a.kind}
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

// mail notes a message taking effect at cycle at.
func (nw *Network) mail(at int64) { nw.mailAt = min(nw.mailAt, at) }

// Step advances the owned routers one cycle.
func (nw *Network) Step(now int64) {
	nw.ejected = nw.ejected[:0]
	nw.credits.PopDue(now, nw.applyCredits)
	nw.arrivals.PopDue(now, nw.land)
	nw.toTerm.PopDue(now, func(fs []*flit.Flit) { nw.ejected = append(nw.ejected, fs...) })

	v, ports, reqW, flat := nw.v, nw.ports, nw.reqW, nw.flat
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
				op := &nw.outs[o]
				if op.free > now {
					continue
				}
				eject := op.to < 0
				row := nw.want[o*reqW:][:reqW]
				best := nw.arbitrate(row, int(op.ptr), qbase, o*v, eject)
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
					op.ptr = 0
				} else {
					op.ptr = int32(best + 1)
				}
				op.free = now + nw.ser
				p := int(uint32(best) / uint32(v))
				c := best - p*v
				nw.sendCreditUpstream(now, lr*ports+p, c)
				ovc := int(s.routeVC)
				ch := &nw.out[o*v+ovc]
				switch s.kind {
				case kindHead:
					ch.owner = int32(q + 1)
				case kindTail:
					ch.owner = 0
				}
				s.dh++
				if eject {
					// The exit wire must be the destination terminal
					// (routing invariant); the packet pays serialization
					// once (Eq. 1). The flit gets back what it would
					// have accumulated hop by hop: its count and last VC.
					if ^op.to != int32(s.dh>>hopBits) {
						panic("network: routing delivered flit to wrong terminal")
					}
					s.f.Hops, s.f.VC = int(s.dh&MaxHops), c
					nw.toTerm.Schedule(now+nw.ser, s.f)
					continue
				}
				ch.credit--
				at := now + nw.hop + 1
				a := Arrival{f: s.f, pkt: s.pkt, dh: s.dh, Router: op.to, Port: op.port, VC: uint8(ovc), kind: s.kind}
				if op.box < 0 {
					nw.arrivals.Schedule(at, a)
				} else {
					a.At = uint32(at)
					box := &nw.outbox[op.box]
					box.Flits = append(box.Flits, a)
					nw.outFlits++
					nw.mail(at)
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
			// VC free; body flits must own it, through their queue. This
			// is what keeps packets from interleaving on a link.
			if s.kind&kindHead != 0 {
				if ch.owner != 0 {
					continue
				}
			} else if ch.owner != int32(qbase+fi+1) {
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

// sendCreditUpstream routes the freed slot of VC c of input port o back
// to the output (or terminal) that feeds it, through the outbox when
// another engine owns the output or hosts the terminal.
func (nw *Network) sendCreditUpstream(now int64, o, c int) {
	fd := nw.feeders[o]
	at := now + creditDelay
	ch := fd.ch + int32(c)
	if fd.ch < 0 {
		ch = fd.ch - int32(c)
	}
	if fd.box < 0 {
		nw.credits.Schedule(at, creditMsg(ch))
		return
	}
	box := &nw.outbox[fd.box]
	box.Credits = append(box.Credits, CreditMail{Q: ch, At: uint32(at)})
	nw.mail(at)
}
