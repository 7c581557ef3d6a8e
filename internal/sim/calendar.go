package sim

// NoWake is the NextAt/NextWake sentinel for "no future event": far
// enough ahead that it never compares below a real cycle, yet far from
// int64 overflow when offsets are added to it.
const NoWake = int64(1) << 62

// Calendar is the simulator's one timed queue: a power-of-two ring of
// per-cycle buckets. Every fixed-latency wire (request and grant wires,
// row buses, switch traversal, credit return, network hops) is a
// calendar scheduled at now+delay, and every NextWake rests on NextAt.
// Schedule calls may come in any order — at an epoch barrier the
// sharded network runner merges remote events into a calendar that
// already holds locally scheduled ones.
//
// The contract fast-forward leans on: no due cycle is skipped. PopDue
// delivers every event at or before now, cycle by cycle, however far
// now has jumped since the last call, and NextAt names the earliest
// pending cycle exactly.
//
// The window invariant is that every pending event lies in
// [base, base+len(buckets)), so a bucket holds events of one cycle only
// and entries carry no timestamp: the bucket index is the cycle.
// Schedule keeps it by sliding the window forward over empty cycles and
// growing the ring when a pending event is in the way; with every event
// at most span cycles after the cycle it is scheduled in, the ring never
// grows. Events
// scheduled before base (possible only through a synchronizer bug; the
// shard mutation tests seed exactly this) are clamped to base and apply
// at the next drain rather than corrupting the ring.
//
// NextAt is O(1) between drains: the calendar keeps its earliest pending
// cycle, lowered by Schedule, and forgets it only when PopDue drains
// that cycle's bucket; the next NextAt finds it again with one scan from
// base, and the calls after that reuse it.
type Calendar[T any] struct {
	buckets  [][]T
	mask     int64
	base     int64 // every cycle < base has been drained
	count    int
	perCycle int // capacity of a fresh bucket
	// next is the earliest pending cycle (NoWake when none) unless stale:
	// PopDue has drained it, and the earliest lies somewhere at or past
	// base.
	next  int64
	stale bool
}

// NewCalendar returns a calendar able to hold events up to span cycles
// in the future without growing its ring, and perCycle events in each
// cycle without growing a bucket — also in the buckets a grown ring
// adds.
func NewCalendar[T any](span, perCycle int) *Calendar[T] {
	size := 2
	for size <= span {
		size <<= 1
	}
	c := &Calendar[T]{buckets: make([][]T, size), mask: int64(size) - 1, perCycle: perCycle, next: NoWake}
	c.fill()
	return c
}

// fill gives every bucket without storage the capacity of perCycle
// events (none when perCycle is 0: a zero-capacity slice allocates
// nothing).
func (c *Calendar[T]) fill() {
	for i, b := range c.buckets {
		if b == nil {
			c.buckets[i] = make([]T, 0, c.perCycle)
		}
	}
}

// Len returns the number of pending events.
func (c *Calendar[T]) Len() int { return c.count }

// Schedule adds an event at the given cycle, in any order relative to
// previous calls. Within one cycle, events preserve insertion order.
func (c *Calendar[T]) Schedule(at int64, v T) {
	if at < c.base {
		at = c.base
	}
	if size := int64(len(c.buckets)); at-c.base >= size {
		if c.NextAt() > at-size {
			// Only empty cycles would leave the window (a quiescent
			// stretch was jumped without a PopDue): slide it, and only
			// as far as the event needs — a later out-of-order event up
			// to size-1 cycles earlier must still land on its own cycle.
			c.base = at - size + 1
		} else {
			for at-c.base >= int64(len(c.buckets)) {
				c.grow()
			}
		}
	}
	b := at & c.mask
	c.buckets[b] = append(c.buckets[b], v)
	c.count++
	if !c.stale {
		c.next = min(c.next, at)
	}
}

// grow doubles the ring and rehomes each pending bucket whole: bucket i
// of the old ring holds the one cycle of [base, base+len) congruent to
// i, so per-cycle insertion order survives the move. The buckets the
// ring gains get the capacity NewCalendar gives its own.
func (c *Calendar[T]) grow() {
	old, oldMask := c.buckets, c.mask
	c.buckets = make([][]T, 2*len(old))
	c.mask = int64(len(c.buckets)) - 1
	for i, bkt := range old {
		at := c.base + (int64(i)-c.base)&oldMask
		c.buckets[at&c.mask] = bkt
	}
	c.fill()
}

// NextAt returns the earliest pending cycle, or NoWake when there is
// none.
func (c *Calendar[T]) NextAt() int64 {
	if c.stale {
		at := c.base
		for len(c.buckets[at&c.mask]) == 0 {
			at++
		}
		c.next, c.stale = at, false
	}
	return c.next
}

// PopDue delivers every event with cycle <= now — one call of fn per
// nonempty cycle, in cycle order, the slice in insertion order — then
// advances the window past now. The slice is recycled when fn returns.
// fn must not call Schedule on the same calendar.
func (c *Calendar[T]) PopDue(now int64, fn func([]T)) {
	if now < c.base {
		return
	}
	for at := c.base; at <= now && c.count > 0; at++ {
		b := at & c.mask
		bkt := c.buckets[b]
		if len(bkt) == 0 {
			continue
		}
		c.count -= len(bkt)
		fn(bkt)
		clear(bkt) // release references for the collector
		c.buckets[b] = bkt[:0]
	}
	c.base = now + 1
	switch {
	case c.count == 0:
		c.next, c.stale = NoWake, false
	case c.next <= now:
		c.stale = true
	}
}
