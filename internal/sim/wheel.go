package sim

import "math/bits"

// Wheel is a calendar-queue scheduler over (cycle, id) events: a
// single-level timing wheel of one-cycle buckets spanning a horizon of
// H cycles, with an overflow list for events beyond it. Schedule and
// PopDue are O(1) amortized — a bucket insert is an append, advancing
// skips empty buckets a 64-slot word at a time via an occupancy bitmap,
// and overflow events are migrated into buckets once per lap turn.
//
// Buckets are lazily sorted: ids land in a bucket in call order and are
// sorted only when the bucket's cycle is popped, so events due on the
// same cycle are always delivered in ascending id order — the order a
// dense per-index scan would visit them, which is what keeps
// event-driven drivers draw-for-draw identical to their dense twins.
//
// The benchmark's per-layer probe (bench/layers.go, sim.wheel_ns.p8192)
// is the Wheel's only caller, and the type goes when that row does: the
// source bank in internal/drive keeps every source's next-injection
// cycle in a dense slice scanned in ascending source order, which gives
// the order above for free.
//
// A Wheel is not safe for concurrent use.
type Wheel struct {
	mask   int64 // horizon-1; horizon is a power of two
	base   int64 // first cycle of the current lap; multiple of horizon
	cursor int64 // next unpopped cycle, in [base, base+horizon]
	slots  [][]int32
	occ    []uint64 // occupancy bitmap over slots
	inLap  int      // events currently held in slots
	over   []wheelEvent
	ovMin  int64 // earliest overflow cycle, NoWake when over is empty
}

type wheelEvent struct {
	at int64
	id int32
}

// NewWheel returns an empty wheel. horizon is the bucket span in
// cycles, rounded up to a power of two (minimum 64); events scheduled
// further ahead than the current lap wait in the overflow list. A
// horizon near the typical event spacing keeps migrations rare;
// 0 selects a 4096-cycle default.
func NewWheel(horizon int) *Wheel {
	if horizon <= 0 {
		horizon = 4096
	}
	if horizon < 64 {
		horizon = 64
	}
	h := 1 << bits.Len(uint(horizon-1)) // next power of two
	return &Wheel{
		mask:  int64(h - 1),
		slots: make([][]int32, h),
		occ:   make([]uint64, h/64),
		ovMin: NoWake,
	}
}

// Schedule adds an event for the given cycle. Scheduling before the
// last popped cycle panics: the wheel's past is gone. Scheduling from
// inside a PopDue callback is allowed for any cycle after the one being
// popped.
func (w *Wheel) Schedule(at int64, id int32) {
	if at < w.cursor {
		panic("sim: Wheel.Schedule in the past")
	}
	if at > w.base+w.mask {
		w.over = append(w.over, wheelEvent{at: at, id: id})
		if at < w.ovMin {
			w.ovMin = at
		}
		return
	}
	w.put(at, id)
}

// put inserts an event known to land inside the current lap.
func (w *Wheel) put(at int64, id int32) {
	s := at & w.mask
	w.slots[s] = append(w.slots[s], id)
	w.occ[s>>6] |= 1 << (uint(s) & 63)
	w.inLap++
}

// NextAt returns the cycle of the earliest pending event. ok is false
// when the wheel is empty.
func (w *Wheel) NextAt() (int64, bool) {
	if w.inLap > 0 {
		return w.base + int64(w.nextOcc(w.cursor&w.mask)), true
	}
	if len(w.over) > 0 {
		return w.ovMin, true
	}
	return 0, false
}

// nextOcc returns the lowest occupied slot index at or after s. The
// caller guarantees one exists (inLap > 0; popped slots are cleared, so
// every occupied slot is at or after the cursor).
func (w *Wheel) nextOcc(s int64) int64 {
	wd := s >> 6
	word := w.occ[wd] &^ (1<<(uint(s)&63) - 1)
	for word == 0 {
		wd++
		word = w.occ[wd]
	}
	return wd<<6 + int64(bits.TrailingZeros64(word))
}

// PopDue delivers every event with cycle <= now, ordered by cycle and,
// within a cycle, by ascending id, then forgets them. fn may Schedule
// new events (at cycles after the one being delivered).
func (w *Wheel) PopDue(now int64, fn func(id int32)) {
	for {
		if w.inLap == 0 {
			if len(w.over) == 0 || w.ovMin > now {
				// Nothing due; advance past now so the past stays sealed.
				if now >= w.cursor {
					w.jumpTo(now + 1)
				}
				return
			}
			w.jumpTo(w.ovMin)
			continue
		}
		at := w.base + int64(w.nextOcc(w.cursor&w.mask))
		if at > now {
			// inLap > 0 bounds at <= base+mask, so now+1 <= base+mask+1
			// stays inside the lap (cursor may sit one past the lap end,
			// where the next pop turns it).
			if now+1 > w.cursor {
				w.cursor = now + 1
			}
			return
		}
		s := at & w.mask
		ids := w.slots[s]
		// Truncating before the callbacks run is safe: a callback can
		// only Schedule cycles after `at`, and `at`'s slot index repeats
		// only one full lap later — beyond the horizon, so such events
		// land in the overflow list, never in this backing array.
		w.slots[s] = ids[:0]
		w.occ[s>>6] &^= 1 << (uint(s) & 63)
		w.inLap -= len(ids)
		w.cursor = at + 1
		sortIDs(ids)
		for _, id := range ids {
			fn(id)
		}
	}
}

// jumpTo moves the cursor to cycle c, turning the wheel to c's lap and
// migrating overflow events that now land inside it. Amortized cost:
// each overflow event is rescanned once per lap turn it survives, and
// lap turns skip straight to the next pending event.
func (w *Wheel) jumpTo(c int64) {
	w.cursor = c
	newBase := c &^ w.mask
	if newBase == w.base {
		return
	}
	w.base = newBase
	if len(w.over) == 0 {
		return
	}
	keep := w.over[:0]
	w.ovMin = NoWake
	end := newBase + w.mask
	for _, e := range w.over {
		if e.at <= end {
			w.put(e.at, e.id)
		} else {
			keep = append(keep, e)
			if e.at < w.ovMin {
				w.ovMin = e.at
			}
		}
	}
	w.over = keep
}

// sortIDs sorts a bucket in place. Buckets hold the handful of sources
// that happen to fire on the same cycle, so an insertion sort beats the
// allocation-free-but-branchy alternatives at these sizes.
func sortIDs(ids []int32) {
	for i := 1; i < len(ids); i++ {
		v := ids[i]
		j := i - 1
		for j >= 0 && ids[j] > v {
			ids[j+1] = ids[j]
			j--
		}
		ids[j+1] = v
	}
}
