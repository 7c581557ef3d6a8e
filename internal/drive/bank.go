package drive

import (
	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/sim"
	"highradix/internal/traffic"
)

// Device is the simulated system behind a bank of sources: a single
// router (router.Router, *check.Checked), a whole network or one
// shard's router range of one (*network.Network). Source s injects at
// port s.
type Device interface {
	// CanAccept reports whether port can take a flit on vc this cycle.
	CanAccept(port, vc int) bool
	// Accept injects f at port f.Src on f.VC. The caller has checked
	// CanAccept and spaces a port's flits a serialization time apart.
	Accept(now int64, f *flit.Flit)
	// Step advances the device one cycle.
	Step(now int64)
	// Ejected returns the flits delivered by the last Step, valid until
	// the next one. The device holds no reference to a delivered flit:
	// the caller may recycle it once it has read it.
	Ejected() []*flit.Flit
	// InFlight counts the flits accepted and not yet delivered, exactly.
	InFlight() int
	// NextWake returns a lower bound, at least now+1, on the next cycle
	// at which Step is not a no-op absent an Accept, or sim.NoWake when
	// Step is a no-op, delivering nothing, at every future cycle. It
	// licenses skipping Steps and jumping time, so it must be exact in
	// that sense — and cheap.
	NextWake(now int64) int64
}

// Workload is the traffic a bank offers; none of it depends on which
// device the bank feeds.
type Workload struct {
	// Rate is each source's packet generation probability per cycle.
	Rate float64
	// PktLen is the packet length in flits.
	PktLen int
	// Pattern supplies destinations; nil means uniform over all sources.
	// Banks of one run may share it, so it must hold no state of its own
	// (every pattern in internal/traffic draws from the RNG it is given).
	Pattern traffic.Pattern
	// Bursty replaces Bernoulli generation by Markov ON/OFF bursts of
	// traffic.BurstLen packets on average, each burst to one destination.
	Bursty bool
	// Injection selects the paper's draw per source per cycle, taken ahead
	// of time in stream order, or, for Bernoulli sources only, gap
	// sampling, one draw per packet (ignored by a trace replay). NewBank
	// panics on a bursty gap workload; testbench.Run refuses one first.
	Injection traffic.InjMode
	// Trace, when non-nil, replaces synthetic generation: its packets are
	// generated at their recorded cycles, whatever the phase. The bank
	// must own every source it names.
	Trace *traffic.Trace
}

// BankConfig sizes a Bank. Beyond the workload and the injection
// channel's shape, a caller supplies only what its recorded results pin:
// which sources the bank owns, their seeds and their packet ids.
type BankConfig struct {
	Workload
	// Sources is the id space; VCs the virtual channels a packet may be
	// injected on; Ser the cycles one flit occupies the injection channel.
	Sources, VCs, Ser int
	// Owns selects the sources this bank generates for; nil owns them
	// all. Banks owning disjoint sets reproduce between them the traffic
	// of one bank owning the union, because every per-source decision
	// comes from that source's private stream.
	Owns func(id int) bool
	// Seed returns the stream seed of an owned source.
	Seed func(id int) uint64
	// PacketID names the seq'th packet (from 1) generated at src. Ids must
	// be unique and nonzero.
	PacketID func(src int, seq uint32) uint64
}

// pkt is a queued packet: 32 bytes from which its flits are built one by
// one as they inject, so a saturated run's backlog is neither flit-sized
// nor cold by the time it crosses the channel.
type pkt struct {
	id        uint64
	createdAt int64
	dst       int
	len       int32
	measured  bool
}

// source is the injection machinery in front of one device port, in
// one 64-byte record: an unbounded generation queue, a flit-serialized
// injection channel and per-packet VC assignment. The queue's front
// packet sits inline in head; the packets behind it wait in an overflow
// ring allocated at the source's first backlog, so a source that never
// queues two packets touches one cache line per generation and
// injection.
type source struct {
	head    pkt             // the front packet, while queued > 0
	more    *sim.Queue[pkt] // the packets behind head; nil until a backlog forms
	injFree int64           // cycle the injection channel frees
	queued  int32           // packets queued, head included
	seq     uint32          // packets generated
	sent    int32           // flits of the front packet already injected
	curVC   int16           // VC of the packet crossing the channel, -1 between packets
	vcPtr   int16           // rotating VC assignment pointer
}

// Bank is the evaluation front end of the paper's Section 4.3 for the
// sources it owns: Bernoulli or Markov ON/OFF generation into unbounded
// source queues, and injection over flit-serialized channels with a VC
// chosen per packet. Its methods are called from one goroutine; while
// drive.Run drives it, its draws may be taken on another (ahead.go).
type Bank struct {
	c    BankConfig
	gen  *drawer // the producer's state: streams, samplers, the schedule (ahead.go)
	srcs []source
	fl   *flit.FreeList

	// The sources InjectAll visits. A source with a nonempty queue is in
	// ready while its channel is free, and otherwise waits in ring slot
	// injFree % Ser until the call that reaches cycle injFree moves it to
	// ready, so a cycle touches no source whose channel is serializing.
	// swept is the last cycle InjectAll ran, wake the last cycle a source
	// waits for: the ring is empty while wake <= swept.
	ready       arb.BitVec
	ring        []arb.BitVec
	swept, wake int64

	// The one schedule of synthetic generation, drawn by the producer
	// into the ring Generate consumes (ahead.go).
	feed feed
	take take

	next int // trace replay: the first entry of Trace.Entries() not yet generated

	genFlits, labeled, backlog int64
}

// horizon bounds the run-ahead, in cycles past the one the consumer has
// reached: what a source that never generates (rate 0, or 1e-9) draws
// past the end of its run, how far a producer may run ahead of the
// device, and the draws one run-ahead takes. At 1024 a source of rate
// 0.00025 parks about four times per packet. A variable for the tests,
// which shrink it until every arrival crosses a checkpoint.
var horizon = 1024

// testHookNewBank, when a test has set it (export_test.go), sees every
// bank built.
var testHookNewBank func(*Bank)

// NewBank builds the bank c describes.
func NewBank(c BankConfig) *Bank {
	n := c.Sources
	d := &drawer{rngs: make([]sim.RNG, n)}
	b := &Bank{
		c:     c,
		gen:   d,
		srcs:  make([]source, n),
		fl:    flit.NewFreeList(),
		ready: arb.MakeBitVec(n),
		ring:  arb.MakeBitVecs(max(c.Ser, 1), n),
		swept: -1,
		wake:  -1,
	}
	if c.Pattern == nil {
		b.c.Pattern = traffic.NewUniform(n)
	}
	switch {
	case c.Trace != nil:
	case c.Bursty && c.Injection == traffic.InjGap:
		panic("drive: bursty sources have no gap-sampled form")
	case c.Bursty:
		d.markov = make([]*traffic.MarkovOnOff, n)
		b.c.Pattern = traffic.NewBurstPattern(b.c.Pattern, d.markov)
	case c.Injection == traffic.InjGap:
		d.gap = traffic.NewBernoulliGap(c.Rate) // stateless: one serves every source
	}
	d.pattern = b.c.Pattern
	for id := 0; id < n; id++ {
		if c.Owns != nil && !c.Owns(id) {
			continue
		}
		d.owned = append(d.owned, id)
		d.rngs[id].Seed(c.Seed(id))
		b.srcs[id].curVC = -1
		if d.markov != nil {
			d.markov[id] = traffic.NewMarkovOnOff(c.Rate, traffic.BurstLen)
		}
	}
	if c.Trace == nil {
		d.rate = sim.BernoulliThreshold(c.Rate)
		d.arrival = make([]int64, len(d.owned))
		d.parked = make([]bool, len(d.owned))
		d.at, d.soon = sim.NoWake, sim.NoWake
		for i := range d.owned {
			d.at = min(d.at, d.ahead(i, 0, int64(horizon)))
		}
		b.feed.recs = make([]arrivalRec, ringSize(len(d.owned)))
		b.feed.front.Store(d.at)
		b.take.seenFront = d.at
	}
	if testHookNewBank != nil {
		testHookNewBank(b)
	}
	return b
}

// spawn queues one packet generated in cycle now at source src.
func (b *Bank) spawn(now int64, src, dst, length int, measuring bool) {
	if length < 1 {
		panic("drive: packet length must be >= 1")
	}
	s := &b.srcs[src]
	switch {
	case s.queued > 0: // InjectAll already finds it
	case s.injFree <= now:
		b.ready.Set(src)
	default:
		b.ring[s.injFree%int64(len(b.ring))].Set(src)
		b.wake = max(b.wake, s.injFree)
	}
	s.seq++
	p := pkt{b.c.PacketID(src, s.seq), now, dst, int32(length), measuring}
	switch {
	case s.queued == 0:
		s.head = p
	case s.more == nil:
		s.more = sim.NewQueue[pkt](0)
		fallthrough
	default:
		s.more.MustPush(p)
	}
	s.queued++
	b.genFlits += int64(length)
	b.backlog += int64(length)
	if measuring {
		b.labeled++
	}
}

// Generate queues the packets of cycle now: the trace's entries due, or
// the synthetic arrivals the producer found for it. A live bank must be
// called at every cycle NextGen names, and may be at any other. Sources
// are visited in ascending order in both injection modes, so a run that
// jumps is draw-for-draw identical to its dense twin.
//
// A source draws its destination at its arrival and only then runs
// ahead again, from the cycle after, so a per-cycle stream is consumed in
// the order one draw per cycle consumed it: failures, the success, the
// destination, failures. A parked source resumes with the draw of the
// checkpoint cycle itself, and generates in that very cycle if it
// succeeds. Draws taken for cycles the run never reaches, or reaches when
// no longer generating, decide nothing: measuring, like the call itself,
// applies at the arrival.
func (b *Bank) Generate(now int64, measuring bool) {
	if b.c.Trace != nil {
		for es := b.c.Trace.Entries(); b.next < len(es) && es[b.next].Cycle <= now; b.next++ {
			e := es[b.next]
			b.spawn(now, e.Src, e.Dst, e.Len, measuring)
		}
		return
	}
	t, recs := &b.take, b.feed.recs
	mask := int64(len(recs)) - 1
	for {
		for ; t.rd < t.seen && recs[t.rd&mask].at <= now; t.rd++ {
			r := &recs[t.rd&mask]
			b.spawn(now, int(r.src), int(r.dst), b.c.PktLen, measuring)
		}
		if t.rd < t.seen || t.seenFront > now {
			break
		}
		b.arrivals(now)
	}
	if now+1-t.posted >= int64(horizon/4) || t.rd-t.postedRd >= int64(len(recs)/4) {
		b.post(now + 1)
	}
}

// InjectAll moves at most one queued flit per source into d, in
// ascending source order over the sources that hold any and whose
// channel is free: a channel carries one flit per Ser cycles, a head
// takes the first acceptable VC at or after the source's rotating
// pointer, and the rest of its packet follows on that VC (wormhole),
// waiting on it when it is refused. The pointer moves past a packet's VC
// at its tail. onInject, when non-nil, sees every injected flit.
//
// Cycles must not decrease from call to call. A call first wakes the
// sources waiting on every cycle since the last one; the driver calls it
// every cycle while Backlog is nonzero and jumps only when the ring is
// empty, so that is one slot.
func (b *Bank) InjectAll(now int64, d Device, onInject func(now int64, f *flit.Flit)) {
	n := int64(len(b.ring))
	if b.wake > b.swept {
		for t := max(b.swept+1, now-n+1); t <= now; t++ {
			slot := &b.ring[t%n]
			b.ready.CopyOr(&b.ready, slot)
			slot.Reset()
		}
	}
	b.swept = now
	// A source that injects now and keeps a backlog waits in now's slot,
	// next swept at now+Ser.
	var slot *arb.BitVec
	v := b.c.VCs
	for id := b.ready.Next(0); id >= 0; id = b.ready.Next(id + 1) {
		s := &b.srcs[id]
		vc := int(s.curVC)
		if s.sent == 0 {
			vc = -1
			for j := 0; j < v; j++ {
				c := int(s.vcPtr) + j
				if c >= v {
					c -= v
				}
				if d.CanAccept(id, c) {
					vc = c
					break
				}
			}
			if vc < 0 {
				continue
			}
			s.curVC = int16(vc)
		} else if !d.CanAccept(id, vc) {
			continue
		}
		p := &s.head
		f := b.fl.Make(p.id, int(s.sent), id, p.dst, vc, int(p.len), p.createdAt, p.measured)
		b.backlog--
		if f.Tail {
			if s.queued--; s.queued > 0 {
				s.head = s.more.MustPop()
			}
			s.sent = 0
			if s.vcPtr = int16(vc + 1); int(s.vcPtr) == v {
				s.vcPtr = 0
			}
			s.curVC = -1
		} else {
			s.sent++
		}
		d.Accept(now, f)
		if onInject != nil {
			onInject(now, f)
		}
		s.injFree = now + int64(b.c.Ser)
		b.ready.Clear(id)
		if s.queued > 0 {
			if slot == nil {
				slot, b.wake = &b.ring[now%n], now+n
			}
			slot.Set(id)
		}
	}
}

// Recycle returns a delivered, fully read flit to the bank's free list.
// Any bank may recycle any flit — identity is unobservable — but only
// from the goroutine that owns the bank.
func (b *Bank) Recycle(f *flit.Flit) { b.fl.Put(f) }

// Backlog returns the flits generated and not yet injected.
func (b *Bank) Backlog() int64 { return b.backlog }

// GenFlits returns the flits generated so far.
func (b *Bank) GenFlits() int64 { return b.genFlits }

// InjectedLabeled returns the packets generated while measuring.
func (b *Bank) InjectedLabeled() int64 { return b.labeled }

// NextGen returns a lower bound on the first cycle after now in which
// Generate can queue anything, sim.NoWake when there is none: a trace's
// next entry whatever live says; otherwise nothing unless synthetic
// generation is live, and then the cycle of the next arrival the
// producer has published or, when it has published none unread, its
// frontier: the cycle it is drawing, or the soonest a source arrives or
// resumes drawing in.
func (b *Bank) NextGen(now int64, live bool) int64 {
	if b.c.Trace != nil {
		if es := b.c.Trace.Entries(); b.next < len(es) {
			return es[b.next].Cycle
		}
		return sim.NoWake
	}
	if !live {
		return sim.NoWake
	}
	t := &b.take
	if t.rd == t.seen {
		t.seenFront = b.feed.front.Load()
		t.seen = b.feed.pub.Load()
	}
	if t.rd < t.seen {
		return b.feed.recs[t.rd&int64(len(b.feed.recs)-1)].at
	}
	return t.seenFront
}

// Plant is a Device behind the Bank that feeds it: the World that the
// single-router testbench, the serial network run and each worker of
// the sharded one advance.
type Plant struct {
	Dev Device
	*Bank
	// OnInject and OnDeliver, when non-nil, see every flit entering and
	// leaving the device; Audit, when non-nil, closes every simulated
	// cycle and may end the run.
	OnInject, OnDeliver func(now int64, f *flit.Flit)
	Audit               func(now int64, inFlight int) error
}

// Advance simulates cycle now up to its deliveries — generate as ph
// directs, inject, step — and returns the flits delivered in it (valid
// until the next call). Unless ph is dense, a device with no wake-up
// (NextWake is sim.NoWake) is not stepped: its step is a provable no-op
// that delivers nothing, so skipping it is exact at any time, unlike a
// jump, and Ejected, which still holds the previous step's recycled
// flits, is not read.
func (p *Plant) Advance(now int64, ph Phase) []*flit.Flit {
	if ph.Generating || p.c.Trace != nil {
		p.Generate(now, ph.Measuring)
	}
	p.InjectAll(now, p.Dev, p.OnInject)
	if !ph.Dense && p.Dev.NextWake(now) == sim.NoWake {
		return nil
	}
	p.Dev.Step(now)
	return p.Dev.Ejected()
}

// Cycle implements World.
func (p *Plant) Cycle(now int64, ph Phase, t *Tally) error {
	for _, f := range p.Advance(now, ph) {
		t.Deliver(f.CreatedAt, f.Hops, f.Tail, f.Measured)
		if p.OnDeliver != nil {
			p.OnDeliver(now, f)
		}
		p.Recycle(f)
	}
	if p.Audit != nil {
		return p.Audit(now, p.Dev.InFlight())
	}
	return nil
}

// NextWake implements Waker: the device's next internal event, brought
// forward to the next cycle the bank can generate in. An audit is a
// no-op on the cycles this skips: nothing happens in them.
func (p *Plant) NextWake(now int64, live bool) int64 {
	gen := p.NextGen(now, live)
	if gen <= now+1 {
		return now + 1 // no jump whatever the device holds: don't ask it
	}
	return min(gen, p.Dev.NextWake(now))
}

// InFlight implements World.
func (p *Plant) InFlight() int { return p.Dev.InFlight() }
