package sim

import "slices"

// Wheel is a view of Calendar[int32] with the pop order and reentrancy
// an event-driven driver wants: events due on one cycle are delivered in
// ascending id order — the order a dense per-index scan would visit them
// — and the callback may Schedule. It holds no schedule of its own, only
// the cursor that seals the past and a scratch slice each due bucket is
// copied into before the callback runs.
//
// The benchmark's per-layer probe (bench/layers.go, sim.wheel_ns.p8192)
// is the Wheel's only caller, and the type goes when that row does: the
// source bank in internal/drive keeps every source's next-injection
// cycle in a dense slice scanned in ascending source order, which gives
// the order above for free.
//
// A Wheel is not safe for concurrent use.
type Wheel struct {
	cal     *Calendar[int32]
	cursor  int64 // every cycle before cursor has been popped
	scratch []int32
}

// wheelPerCycle is a bucket's capacity: room for the handful of events
// one cycle holds, so a steady schedule+pop cycle does not allocate.
const wheelPerCycle = 16

// NewWheel returns an empty wheel whose calendar holds events up to
// horizon cycles ahead without growing its ring (further ones grow it);
// 0 selects 4096.
func NewWheel(horizon int) *Wheel {
	if horizon <= 0 {
		horizon = 4096
	}
	return &Wheel{cal: NewCalendar[int32](horizon, wheelPerCycle)}
}

// Schedule adds an event for the given cycle. Scheduling before the
// last popped cycle panics: the wheel's past is gone. Scheduling from
// inside a PopDue callback is allowed for any cycle after the one being
// popped.
func (w *Wheel) Schedule(at int64, id int32) {
	if at < w.cursor {
		panic("sim: Wheel.Schedule in the past")
	}
	// A calendar slides its window forward over a far event when nothing
	// pending is in the way, and clamps an event before the window to its
	// start. A ring longer than at-cursor keeps the window from passing
	// the cursor, so a later event for an earlier cycle still lands on
	// its own.
	c := w.cal
	for at-w.cursor >= int64(len(c.buckets)) {
		c.grow()
	}
	c.Schedule(at, id)
}

// NextAt returns the cycle of the earliest pending event. ok is false
// when the wheel is empty.
func (w *Wheel) NextAt() (int64, bool) {
	at := w.cal.NextAt()
	return at, at != NoWake
}

// PopDue delivers every event with cycle <= now, ordered by cycle and,
// within a cycle, by ascending id, then forgets them. fn may Schedule
// new events (at cycles after the one being delivered).
func (w *Wheel) PopDue(now int64, fn func(id int32)) {
	for at := w.cal.NextAt(); at <= now; at = w.cal.NextAt() {
		w.cursor = at + 1
		w.cal.PopDue(at, func(ids []int32) { w.scratch = append(w.scratch[:0], ids...) })
		slices.Sort(w.scratch)
		for _, id := range w.scratch {
			fn(id)
		}
	}
	w.cursor = max(w.cursor, now+1)
}
