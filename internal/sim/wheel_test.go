package sim

import (
	"sort"
	"testing"
)

// wheelModel is the reference implementation the wheel is checked
// against: a flat multiset popped by (cycle, id) sort.
type wheelModel struct {
	events []wheelEvent
}

type wheelEvent struct {
	at int64
	id int32
}

func (m *wheelModel) schedule(at int64, id int32) {
	m.events = append(m.events, wheelEvent{at: at, id: id})
}

func (m *wheelModel) popDue(now int64) []wheelEvent {
	sort.Slice(m.events, func(i, j int) bool {
		a, b := m.events[i], m.events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.id < b.id
	})
	n := 0
	for n < len(m.events) && m.events[n].at <= now {
		n++
	}
	due := append([]wheelEvent(nil), m.events[:n]...)
	m.events = append(m.events[:0], m.events[n:]...)
	return due
}

// TestWheelMatchesModel drives random schedules and pops through the
// wheel and the reference model with fixed seeds, covering in-lap
// scheduling, overflow beyond the horizon, long idle jumps across many
// laps, and same-cycle ordering.
func TestWheelMatchesModel(t *testing.T) {
	for _, horizon := range []int{64, 256, 1024} {
		w := NewWheel(horizon)
		m := &wheelModel{}
		rng := NewRNG(uint64(horizon) * 0x9e37)
		now := int64(-1)
		for step := 0; step < 4000; step++ {
			// Schedule a burst of events, some far beyond the horizon.
			for i := rng.Intn(4); i > 0; i-- {
				span := int64(horizon)
				if rng.Intn(4) == 0 {
					span = int64(horizon) * 20 // deep overflow
				}
				at := now + 1 + int64(rng.Intn(int(span)))
				id := int32(rng.Intn(64))
				w.Schedule(at, id)
				m.schedule(at, id)
			}
			if wa, wok := w.NextAt(); true {
				var ma int64
				mok := len(m.events) > 0
				if mok {
					ma = m.events[0].at
					for _, e := range m.events {
						if e.at < ma {
							ma = e.at
						}
					}
				}
				if wok != mok || (wok && wa != ma) {
					t.Fatalf("step %d: NextAt = (%d,%v), model (%d,%v)", step, wa, wok, ma, mok)
				}
			}
			// Advance: usually a short hop, occasionally a huge idle jump.
			hop := int64(rng.Intn(horizon / 2))
			if rng.Intn(16) == 0 {
				hop = int64(horizon) * int64(50+rng.Intn(50))
			}
			now += 1 + hop
			var got []wheelEvent
			w.PopDue(now, func(id int32) {
				got = append(got, wheelEvent{id: id})
			})
			// Recover cycles from the model (the wheel callback only sees
			// ids; order must still be (cycle, id) ascending).
			want := m.popDue(now)
			if len(got) != len(want) {
				t.Fatalf("step %d: popped %d events, model %d", step, len(got), len(want))
			}
			for i := range got {
				if got[i].id != want[i].id {
					t.Fatalf("step %d: pop %d = id %d, model id %d (model at %d)",
						step, i, got[i].id, want[i].id, want[i].at)
				}
			}
			if w.Len() != len(m.events) {
				t.Fatalf("step %d: Len %d, model %d", step, w.Len(), len(m.events))
			}
		}
	}
}

// TestWheelSameCycleOrder pins the determinism contract directly: ids
// landing on one cycle pop in ascending id order regardless of
// scheduling order.
func TestWheelSameCycleOrder(t *testing.T) {
	w := NewWheel(128)
	for _, id := range []int32{9, 3, 41, 0, 17, 3} {
		w.Schedule(50, id)
	}
	w.Schedule(49, 7)
	var got []int32
	w.PopDue(60, func(id int32) { got = append(got, id) })
	want := []int32{7, 0, 3, 3, 9, 17, 41}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v", got, want)
		}
	}
}

// TestWheelEarlierAfterFar pins that an event scheduled after a far one,
// for an earlier cycle, still pops on its own cycle and first: the
// calendar under the wheel must not have moved its window past it.
func TestWheelEarlierAfterFar(t *testing.T) {
	w := NewWheel(64)
	w.Schedule(100000, 1)
	w.Schedule(20, 2)
	if at, ok := w.NextAt(); !ok || at != 20 {
		t.Fatalf("NextAt = (%d,%v), want (20,true)", at, ok)
	}
	for _, step := range []struct {
		now  int64
		want int32
	}{{50, 2}, {100000, 1}} {
		var got []int32
		w.PopDue(step.now, func(id int32) { got = append(got, id) })
		if len(got) != 1 || got[0] != step.want {
			t.Fatalf("PopDue(%d) popped %v, want [%d]", step.now, got, step.want)
		}
	}
}

// TestWheelScheduleDuringPop exercises the reentrancy the drivers rely
// on: each popped source schedules its next event from inside the
// callback, including events that land in the current lap and in
// overflow.
func TestWheelScheduleDuringPop(t *testing.T) {
	w := NewWheel(64)
	const sources = 8
	for i := int32(0); i < sources; i++ {
		w.Schedule(int64(i), i)
	}
	counts := make([]int, sources)
	var now int64
	for now < 10000 {
		next, ok := w.NextAt()
		if !ok {
			t.Fatal("wheel drained unexpectedly")
		}
		now = next
		w.PopDue(now, func(id int32) {
			counts[id]++
			// Hop by a source-dependent stride so laps interleave; id 0
			// goes deep into overflow every time.
			stride := int64(1 + id*13)
			if id == 0 {
				stride = 500
			}
			w.Schedule(now+stride, id)
		})
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("source %d never popped", i)
		}
	}
	if w.Len() != sources {
		t.Fatalf("Len = %d, want %d", w.Len(), sources)
	}
}

// TestWheelPastPanics pins the seal: scheduling at or before an
// already-popped cycle is a driver bug and must panic.
func TestWheelPastPanics(t *testing.T) {
	w := NewWheel(64)
	w.Schedule(10, 1)
	w.PopDue(20, func(int32) {})
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(15) after PopDue(20) did not panic")
		}
	}()
	w.Schedule(15, 2)
}
