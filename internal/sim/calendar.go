package sim

// Calendar is a bucketed calendar queue for events with bounded delay:
// a power-of-two ring of buckets indexed by cycle. Unlike DelayLine it
// accepts out-of-order Schedule calls (arrival cycles need not be
// nondecreasing), which is what the sharded network runner requires —
// at an epoch barrier, remote events merge into a calendar that already
// holds locally scheduled ones with arbitrary relative order.
//
// The window invariant is that every pending event lies in
// [base, base+len(buckets)); Schedule grows the ring when an event
// falls beyond it, so the capacity hint only sizes the common case.
// A bucket therefore holds events of one cycle only, and entries carry
// no timestamp: the bucket index is the cycle. Events scheduled before
// base (possible only through a synchronizer bug; the shard mutation
// tests seed exactly this) are clamped to base and apply at the next
// drain rather than corrupting the ring.
type Calendar[T any] struct {
	buckets [][]T
	mask    int64
	base    int64 // every cycle < base has been drained
	count   int
}

// NewCalendar returns a calendar able to hold events up to span cycles
// in the future without growing.
func NewCalendar[T any](span int) *Calendar[T] {
	size := int64(8)
	for size < int64(span)+1 {
		size <<= 1
	}
	return &Calendar[T]{buckets: make([][]T, size), mask: size - 1}
}

// Len returns the number of pending events.
func (c *Calendar[T]) Len() int { return c.count }

// Schedule adds an event at the given cycle, in any order relative to
// previous calls. Within one cycle, events preserve insertion order.
func (c *Calendar[T]) Schedule(at int64, v T) {
	if at < c.base {
		at = c.base
	}
	for at-c.base >= int64(len(c.buckets)) {
		c.grow()
	}
	b := at & c.mask
	c.buckets[b] = append(c.buckets[b], v)
	c.count++
}

// grow doubles the ring and rehomes each pending bucket whole: bucket i
// of the old ring holds the one cycle of [base, base+len) congruent to
// i, so per-cycle insertion order survives the move.
func (c *Calendar[T]) grow() {
	old, oldMask := c.buckets, c.mask
	c.buckets = make([][]T, 2*len(old))
	c.mask = int64(len(c.buckets)) - 1
	for i, bkt := range old {
		at := c.base + (int64(i)-c.base)&oldMask
		c.buckets[at&c.mask] = bkt
	}
}

// NextAt returns the earliest pending cycle.
func (c *Calendar[T]) NextAt() (int64, bool) {
	if c.count == 0 {
		return 0, false
	}
	for at := c.base; ; at++ {
		if len(c.buckets[at&c.mask]) > 0 {
			return at, true
		}
	}
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
}
