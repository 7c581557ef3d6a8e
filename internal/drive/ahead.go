package drive

import (
	"sync/atomic"

	"highradix/internal/sim"
	"highradix/internal/traffic"
)

// A bank's synthetic generation is two halves joined by a ring. The
// producer (drawer) is everything that only draws: each source's
// run-ahead (ahead) and each packet's destination. It writes the
// arrivals it finds into the ring in cycle order and, within a cycle,
// ascending source order — the order Generate spawns them in, so packet
// ids, the measuring label, queues and the ready set, which stay with
// the consumer, see what they always saw. Every draw comes from its
// source's private stream in the order one draw per cycle would take
// it, so where and when the producer runs moves no result byte.
//
// Whoever produces is one of two goroutines. When drive.Run finds a CPU
// spare in the budget (gate.go) it starts a producer goroutine that
// runs ahead of the device; otherwise the consumer, finding the ring
// empty, produces a batch itself. Either way produce is the one
// function that draws, and a producer goroutine that no longer fits the
// budget publishes what it drew, exits and leaves the rest to the
// consumer.

// arrivalRec is one packet a producer found: source src generates it,
// for dst, in cycle at.
type arrivalRec struct {
	at       int64
	src, dst int32
}

// drawer is the producer's state, touched only by whoever produces and
// allocated apart from the consumer's, so the two share no cache line.
type drawer struct {
	_ [64]byte

	owned   []int // ascending
	rngs    []sim.RNG
	pattern traffic.Pattern
	// arrival[i] is the cycle source owned[i] generates in next, every
	// draw up to that cycle's taken — or, when parked[i], the cycle whose
	// draw is its stream's next, the limit having stopped a per-cycle
	// source there (a gap source samples the cycle outright and never
	// parks).
	arrival []int64
	parked  []bool
	gap     *traffic.BernoulliGap  // gap mode: every source's sampler; nil per cycle
	rate    uint64                 // per-cycle mode: Rate as a sim.BernoulliThreshold
	markov  []*traffic.MarkovOnOff // per-cycle mode: the bursty sources' chains; nil for Bernoulli

	// Where the scan is: cycle at has visited owned positions before i,
	// the earliest event those have left being soon, and head records
	// have been written. At a cycle's start (i = 0) at is the earliest
	// event of all; mid-cycle it is the cycle under way. Both are the
	// frontier; posted is the one last posted to the consumer.
	at, soon, head, posted int64
	i                      int
	// forced: a test started this producer goroutine and keeps it
	// whatever the budget says.
	forced bool

	_ [64]byte
}

// feed is the ring and the two handoffs across it, the producer's words
// and the consumer's on cache lines of their own.
type feed struct {
	_    [64]byte
	recs []arrivalRec // a power of two long

	// Written by the producer. Every record of a cycle before front is in
	// the first pub. ahead carries front, at least every quarter horizon,
	// and before the producer goroutine waits, and sim.NoWake once it has
	// exited, so a consumer waiting on it wakes for a batch of work.
	pub, front atomic.Int64
	ahead      Gate
	exited     atomic.Bool
	fault      any // what the producer goroutine panicked with, read after it exits
	_          [64]byte

	// Written by the consumer. Every published record of a cycle before
	// room's count has been consumed, the first taken of them all; quit
	// asks a producer goroutine to exit, and room wakes it to see it.
	taken atomic.Int64
	room  Gate
	quit  atomic.Bool
	_     [64]byte
}

// take is the consumer's view of the ring: records before rd consumed,
// and pub and front as last loaded; posted and postedRd are the room
// count and taken it last posted.
type take struct {
	rd, seen, seenFront int64
	posted, postedRd    int64
	// producing: a producer goroutine owns the draws; done closes when it
	// has exited.
	producing bool
	done      chan struct{}
}

const (
	// maxRing bounds a bank's ring at 4096 records, 64 KiB.
	maxRing = 4096
	// batch is how many source visits a producer makes before it
	// publishes what it drew.
	batch = 4096
)

// testProducers, when a test has set it (export_test.go), overrides the
// budget: +1 starts a producer goroutine for every bank drive.Run
// drives and keeps it whatever the budget says, -1 starts none.
var testProducers int

// ringSize sizes the ring of a bank owning n sources: 64 records per
// source, within [64, maxRing].
func ringSize(n int) int {
	size := 64
	for size < 64*n && size < maxRing {
		size <<= 1
	}
	return size
}

// ahead takes the draws of source owned[i] for cycle from and the cycles
// after it — a gap source's one sample, or a per-cycle source's draws
// until one succeeds or those of the cycles before limit, horizon at
// most, have failed — and returns the cycle that leaves the source at:
// its next arrival (sim.NoWake if it has none), or the checkpoint it
// parks at. The horizon cap bounds one call whatever limit is.
func (d *drawer) ahead(i int, from, limit int64) int64 {
	id := d.owned[i]
	if d.gap != nil {
		d.arrival[i] = d.gap.NextInject(from, &d.rngs[id])
		return d.arrival[i]
	}
	n := int(min(limit-from, int64(horizon)))
	var idle int
	var hit bool
	if d.markov != nil {
		idle, hit = d.markov[id].InjectAhead(&d.rngs[id], n)
	} else {
		idle, hit = d.rngs[id].BernoulliAhead(d.rate, n)
	}
	d.parked[i] = !hit
	d.arrival[i] = from + int64(idle)
	return d.arrival[i]
}

// produce is the producer: it scans the sources' next events in cycle
// order, writing an arrival's record and drawing its destination before
// the source runs ahead again from the cycle after, and resuming a
// parked source with the draw of its checkpoint cycle itself, which may
// succeed. A source never draws for a cycle horizon or more past the
// consumer's room count: that is what bounds the draws taken for cycles
// the run never reaches. It stops at that limit, when the ring is full,
// or after batch visits, and publishes. A visit that needs a slot and
// finds none is taken again from the start.
func (b *Bank) produce() {
	d, f := b.gen, &b.feed
	limit := min(f.room.Count()+int64(horizon), sim.NoWake)
	free := int64(len(f.recs)) - (d.head - f.taken.Load())
	recs, mask := f.recs, int64(len(f.recs))-1
	arrival := d.arrival
	at, i, soon, head := d.at, d.i, d.soon, d.head
scan:
	for visits := 0; at < limit && visits < batch; visits += len(arrival) {
		for ; i < len(arrival); i++ {
			a := arrival[i]
			for a <= at {
				if d.parked[i] {
					a = d.ahead(i, a, limit)
					continue
				}
				if free == 0 {
					break scan
				}
				id := d.owned[i]
				recs[head&mask] = arrivalRec{at, int32(id), int32(d.pattern.Dest(id, &d.rngs[id]))}
				head++
				free--
				a = d.ahead(i, at+1, limit)
			}
			soon = min(soon, a)
		}
		at, i, soon = soon, 0, sim.NoWake
	}
	d.at, d.i, d.soon, d.head = at, i, soon, head
	f.pub.Store(head)
	f.front.Store(at)
	if at-d.posted >= int64(max(horizon/4, 1)) {
		b.postFront()
	}
}

// postFront posts the frontier to a consumer that may be waiting on it.
func (b *Bank) postFront() {
	b.feed.ahead.Post(b.gen.at)
	b.gen.posted = b.gen.at
}

// startDraws starts a producer goroutine for b's synthetic sources if
// the budget has a CPU spare for it (or a test insists), and returns
// whether it did.
func (b *Bank) startDraws() bool {
	if b.c.Trace != nil || b.gen.at >= sim.NoWake {
		return false
	}
	switch {
	case testProducers < 0:
		return false
	case testProducers > 0:
		threads.Add(1)
	case spare(1) == 0:
		return false
	}
	b.feed.ahead.Init()
	b.feed.room.Init()
	b.gen.forced = testProducers > 0
	b.take.producing, b.take.done = true, make(chan struct{})
	if testHookProducer != nil {
		testHookProducer(b)
	}
	go b.runDraws()
	return true
}

// Test hooks, set only by export_test.go: testHookProducer sees every
// bank whose draws a producer goroutine takes, testHookClaimed every
// drive.Run between claiming its goroutine and building its world, and
// testHookDecided every drive.Run once it has decided on a producer.
var (
	testHookProducer func(*Bank)
	testHookClaimed  func()
	testHookDecided  func()
)

// runDraws is the producer goroutine: produce, then wait until the
// consumer has made room or moved the limit, until told to quit, out of
// draws, or out of budget. On the way out, by any path, it hands the
// draws back.
func (b *Bank) runDraws() {
	f := &b.feed
	defer func() {
		f.fault = recover()
		threads.Add(-1)
		f.exited.Store(true)
		f.ahead.Post(sim.NoWake)
		close(b.take.done)
	}()
	for {
		b.produce()
		if b.gen.at >= sim.NoWake || !b.awaitRoom() {
			return
		}
	}
}

// awaitRoom returns true once produce can make progress — the limit has
// passed the next event and the ring has a slot, a quarter of it when
// full — and false as soon as quit is set or the producer no longer
// fits the budget. It posts the frontier before it waits.
func (b *Bank) awaitRoom() bool {
	d, f := b.gen, &b.feed
	size := int64(len(f.recs))
	for !f.quit.Load() && (d.forced || fits()) {
		var until int64
		switch {
		case d.at >= f.room.Count()+int64(horizon):
			until = d.at - int64(horizon) + 1
		case d.head-f.taken.Load() >= size:
			// The consumer has taken a record once its room count passes
			// the record's cycle.
			until = f.recs[(d.head-size+size/4-1)&(size-1)].at + 1
		default:
			return true
		}
		if d.posted != d.at {
			b.postFront()
		}
		f.room.Wait(until)
	}
	return false
}

// stopDraws stops b's producer goroutine, if it runs, and returns once
// it has exited. Its panic, if it had one, is dropped: the consumer
// never needed what it was drawing.
func (b *Bank) stopDraws() {
	if !b.take.producing {
		return
	}
	b.feed.quit.Store(true)
	b.feed.room.Post(sim.NoWake)
	b.join()
}

// join waits for the exited producer goroutine and takes the draws back.
func (b *Bank) join() any {
	<-b.take.done
	b.take.producing = false
	return b.feed.fault
}

// arrivals makes sure every record of cycle now is in the consumer's
// view: it reloads the view, then, while the ring holds nothing unread
// and the frontier has not passed now, waits for the producer goroutine
// or produces a batch itself. A producer's panic is raised here, on the
// consumer's goroutine, when the consumer reaches the draw that caused
// it.
func (b *Bank) arrivals(now int64) {
	t, f := &b.take, &b.feed
	for {
		t.seenFront = f.front.Load()
		t.seen = f.pub.Load()
		if t.rd < t.seen || t.seenFront > now {
			return
		}
		b.post(now + 1)
		if !t.producing {
			b.produce()
			continue
		}
		f.ahead.Wait(now + 1)
		if f.exited.Load() {
			if r := b.join(); r != nil {
				panic(r)
			}
		}
	}
}

// post tells the producer that every published record of a cycle before
// mark has been consumed.
func (b *Bank) post(mark int64) {
	t := &b.take
	b.feed.taken.Store(t.rd)
	b.feed.room.Post(mark)
	t.posted, t.postedRd = mark, t.rd
}
