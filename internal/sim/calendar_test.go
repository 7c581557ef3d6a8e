package sim

import (
	"runtime"
	"slices"
	"testing"
)

// drain pops everything due by now into a flat slice.
func drain[T any](c *Calendar[T], now int64) []T {
	var got []T
	c.PopDue(now, func(vs []T) { got = append(got, vs...) })
	return got
}

// TestCalendarLatency is the fixed-latency wire every router pipeline
// builds from a calendar: an event scheduled at now+d is invisible
// before that cycle and delivered exactly on it.
func TestCalendarLatency(t *testing.T) {
	c := NewCalendar[int](3, 0)
	c.Schedule(10+3, 42)
	for now := int64(10); now < 13; now++ {
		if got := drain(c, now); len(got) != 0 {
			t.Fatalf("event visible at cycle %d, scheduled for 13: %v", now, got)
		}
		if at := c.NextAt(); at != 13 {
			t.Fatalf("NextAt after PopDue(%d) = %d, want 13", now, at)
		}
	}
	if got := drain(c, 13); !slices.Equal(got, []int{42}) {
		t.Fatalf("PopDue(13) = %v, want [42]", got)
	}
	if c.Len() != 0 || c.NextAt() != NoWake {
		t.Fatalf("drained calendar: Len %d, NextAt %d", c.Len(), c.NextAt())
	}
}

// TestCalendarZeroDelay: an event scheduled for the current cycle
// before that cycle's PopDue is delivered by it (a combinational path).
func TestCalendarZeroDelay(t *testing.T) {
	c := NewCalendar[string](1, 0)
	c.PopDue(4, func([]string) {})
	c.Schedule(5, "x")
	if got := drain(c, 5); !slices.Equal(got, []string{"x"}) {
		t.Fatalf("same-cycle event not delivered: %v", got)
	}
}

func TestCalendarFIFOWithinCycle(t *testing.T) {
	c := NewCalendar[int](2, 0)
	c.Schedule(2, 1)
	c.Schedule(2, 2)
	c.Schedule(3, 3)
	if got := drain(c, 2); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("PopDue(2) = %v, want [1 2]", got)
	}
	if got := drain(c, 3); !slices.Equal(got, []int{3}) {
		t.Fatalf("PopDue(3) = %v, want [3]", got)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after full drain", c.Len())
	}
}

// TestCalendarGrowKeepsOrder fills every cycle of a small ring in a
// scrambled order, forces two doublings, and expects each cycle's
// events back whole, in insertion order, one PopDue callback per cycle.
func TestCalendarGrowKeepsOrder(t *testing.T) {
	c := NewCalendar[[2]int64](3, 0)
	c.PopDue(4, func([][2]int64) {}) // a base that is no multiple of the ring
	size := int64(c.Buckets())
	seq := int64(0)
	add := func(at int64) { c.Schedule(at, [2]int64{at, seq}); seq++ }
	for round := 0; round < 3; round++ {
		for off := size - 1; off >= 0; off-- {
			add(5 + off)
		}
	}
	add(5 + 4*size - 1) // beyond the window, calendar nonempty: grow twice
	add(5 + size)
	if got := int64(c.Buckets()); got != 4*size {
		t.Fatalf("ring has %d buckets after growth, want %d", got, 4*size)
	}
	last := [2]int64{-1, -1}
	calls := 0
	c.PopDue(5+4*size, func(vs [][2]int64) {
		calls++
		for _, v := range vs {
			if v[0] != vs[0][0] {
				t.Fatalf("one callback mixes cycles %d and %d", vs[0][0], v[0])
			}
			if v[0] < last[0] || v[0] == last[0] && v[1] < last[1] {
				t.Fatalf("event %v delivered after %v", v, last)
			}
			last = v
		}
	})
	if want := int(size) + 2; calls != want || c.Len() != 0 {
		t.Fatalf("%d callbacks, %d events left; want %d and 0", calls, c.Len(), want)
	}
}

// TestCalendarClampsBeforeBase: an event behind the drained window (a
// synchronizer bug; the shard mutation tests seed it) applies at the
// next drain instead of a full ring lap later.
func TestCalendarClampsBeforeBase(t *testing.T) {
	c := NewCalendar[int](4, 0)
	c.PopDue(20, func([]int) {})
	c.Schedule(22, 2)
	c.Schedule(17, 1)
	if at := c.NextAt(); at != 21 {
		t.Fatalf("NextAt = %d, want the late event clamped to 21", at)
	}
	if got := drain(c, 21); !slices.Equal(got, []int{1}) {
		t.Fatalf("PopDue(21) = %v, want [1]", got)
	}
	if got := drain(c, 22); !slices.Equal(got, []int{2}) {
		t.Fatalf("PopDue(22) = %v, want [2]", got)
	}
}

// TestCalendarIdleGap: a quiescent device is not stepped, so its empty
// calendar's window stays where the last PopDue left it while time
// jumps. The next Schedule must slide the window, not grow the ring to
// the length of the gap — and slide it only as far as the event needs,
// so an out-of-order earlier event still lands on its own cycle.
func TestCalendarIdleGap(t *testing.T) {
	c := NewCalendar[int](6, 0)
	size := c.Buckets()
	c.Schedule(3, 1)
	if got := drain(c, 3); !slices.Equal(got, []int{1}) {
		t.Fatalf("PopDue(3) = %v, want [1]", got)
	}
	const skip = 1_000_000
	c.Schedule(skip+6, 3)
	c.Schedule(skip+1, 2)
	c.Schedule(skip+8, 4) // slides again: only empty cycles leave the window
	if got := c.Buckets(); got != size {
		t.Fatalf("ring grew from %d to %d buckets across an idle gap", size, got)
	}
	if at := c.NextAt(); at != skip+1 {
		t.Fatalf("NextAt = %d, want %d", at, skip+1)
	}
	if got := drain(c, skip+1); !slices.Equal(got, []int{2}) {
		t.Fatalf("PopDue(%d) = %v, want [2]", skip+1, got)
	}
	if got := drain(c, skip+8); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("PopDue(%d) = %v, want [3 4]", skip+8, got)
	}
}

// TestCalendarGrowsWithCapacity: a calendar whose span was declared too
// short grows its ring, and the buckets it gains hold perCycle events as
// its own do. So once the ring has stopped growing, a steady
// schedule+drain cycle allocates nothing, from the first lap over the
// grown ring on, not only once every new bucket has been used. The lap
// is counted by hand: testing.AllocsPerRun's warm-up would spend it.
func TestCalendarGrowsWithCapacity(t *testing.T) {
	const perCycle, ahead = 8, 24
	c := NewCalendar[int32](4, perCycle) // but every event goes 24 cycles ahead
	var now int64
	cycle := func() {
		c.PopDue(now, func([]int32) {})
		for i := range perCycle {
			c.Schedule(now+ahead, int32(i))
		}
		now++
	}
	for c.Buckets() <= ahead {
		cycle()
	}
	size := c.Buckets()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 2 * size {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if c.Buckets() != size {
		t.Fatalf("ring grew again, from %d to %d buckets", size, c.Buckets())
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d heap allocations in the %d cycles after the ring grew to %d buckets, want 0", n, 2*size, size)
	}
}

// scanNextAt is NextAt by brute force: the earliest cycle over every
// nonempty bucket of the ring, read off the window.
func scanNextAt[T any](c *Calendar[T]) int64 {
	at := NoWake
	for i, bkt := range c.buckets {
		if len(bkt) > 0 {
			at = min(at, c.base+(int64(i)-c.base)&c.mask)
		}
	}
	return at
}

// TestCalendarNextAtMatchesScan: the earliest pending cycle the calendar
// keeps is the one a scan of its ring finds, whatever ran since NextAt
// was last asked — schedules that lower it, drains that empty its
// bucket or jump past it, schedules behind the window, window slides
// over idle stretches and ring growth — and asking twice changes
// nothing.
func TestCalendarNextAtMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		c := NewCalendar[int](int(seed%5), 0)
		size := c.Buckets()
		now := int64(-1)
		for step := 0; step < 5000; step++ {
			ring := int64(c.Buckets())
			switch op := rng.Intn(16); {
			case op == 0:
				c.Schedule(now-int64(rng.Intn(4)), step) // behind the window: clamped
			case op == 1 && c.Len() > 0 && c.Buckets() < 16*size:
				c.Schedule(c.NextAt()+ring, step) // a pending event in the way: grow
			case op < 9:
				c.Schedule(now+1+int64(rng.Intn(int(ring))), step)
			case op < 10 && c.Len() == 0:
				now += int64(rng.Intn(50 * int(ring))) // idle: the next Schedule slides
			default:
				now += int64(rng.Intn(4))
				c.PopDue(now, func([]int) {})
			}
			if rng.Intn(3) > 0 {
				continue // let the next operations run on what the calendar kept
			}
			want := scanNextAt(c)
			if at := c.NextAt(); at != want {
				t.Fatalf("seed %d step %d: NextAt %d, a scan of the ring finds %d", seed, step, at, want)
			}
			if at := c.NextAt(); at != want {
				t.Fatalf("seed %d step %d: NextAt asked again says %d, want %d", seed, step, at, want)
			}
		}
		if c.Buckets() == size {
			t.Errorf("seed %d: the ring never grew", seed)
		}
	}
}

// TestCalendarMatchesSortedModel drives a calendar and a stably sorted
// slice with the same random script: out-of-order schedules up to one
// ring length ahead (the bounded delay the sliding window assumes), some
// farther ahead with a pending event in the way (the ring must grow), a
// few behind the window, drains that jump a random distance, and idle
// stretches far longer than the ring that nothing drains.
func TestCalendarMatchesSortedModel(t *testing.T) {
	type ev struct {
		at  int64
		seq int
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		c := NewCalendar[ev](int(seed%7), int(seed%3))
		size := c.Buckets()
		var model []ev
		now, first, seq := int64(-1), NoWake, 0
		drained := true // PopDue(now) has run: the window starts at now+1
		schedule := func(at, lands int64) {
			c.Schedule(at, ev{lands, seq})
			model = append(model, ev{lands, seq})
			seq++
		}
		for step := 0; step < 4000; step++ {
			ring := c.Buckets()
			switch op := rng.Intn(20); {
			case op == 0 && drained:
				schedule(now-int64(rng.Intn(5)), now+1) // behind the window: clamped
			case op == 1 && first != NoWake && ring < 8*size:
				schedule(first+int64(ring), first+int64(ring)) // one doubling
			case op < 12:
				at := now + 1 + int64(rng.Intn(ring))
				schedule(at, at)
			case op < 14 && first == NoWake:
				now += int64(rng.Intn(100 * ring))
				drained = false
			default:
				now += 1 + int64(rng.Intn(6))
				drained = true
				slices.SortStableFunc(model, func(a, b ev) int { return int(a.at - b.at) })
				n := 0
				for n < len(model) && model[n].at <= now {
					n++
				}
				if got := drain(c, now); !slices.Equal(got, model[:n]) {
					t.Fatalf("seed %d step %d: PopDue(%d) = %v, model %v", seed, step, now, got, model[:n])
				}
				model = model[n:]
			}
			first = NoWake
			for _, m := range model {
				first = min(first, m.at)
			}
			if at := c.NextAt(); at != first || c.Len() != len(model) {
				t.Fatalf("seed %d step %d: NextAt %d Len %d, model %d and %d", seed, step, at, c.Len(), first, len(model))
			}
		}
		if got := c.Buckets(); got != 8*size {
			t.Fatalf("seed %d: ring went from %d to %d buckets, want %d: it grows when and only when a pending event is in the way", seed, size, got, 8*size)
		}
	}
}
