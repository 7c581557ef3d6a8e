package sim

import (
	"fmt"
	"testing"
)

// The wheel's job is to keep schedule/advance O(1) amortized at any
// backlog, so each benchmark holds a steady population of pending
// events (1K-64K) and measures one schedule+pop cycle per op — the
// steady-state work an event-driven testbench does per event.

// steadyWheel returns one schedule+pop cycle over a wheel holding a
// steady population of pending events.
func steadyWheel(pending int) (op func()) {
	w := NewWheel(4096)
	rng := NewRNG(1)
	var now int64
	// Pre-populate: events spread over ~4 laps, like a low-load sweep's
	// source population.
	for i := 0; i < pending; i++ {
		w.Schedule(now+1+int64(rng.Intn(16384)), int32(i))
	}
	reschedule := func(id int32) {
		w.Schedule(now+1+int64(rng.Intn(16384)), id)
	}
	return func() {
		now, _ = w.NextAt()
		w.PopDue(now, reschedule)
	}
}

// TestWheelSteadyStateAllocs gates the wheel's hot path: a schedule+pop
// cycle is an append into a kept calendar bucket, a copy into the kept
// scratch slice and an in-place sort. AllocsPerRun runs one batch of
// 20,000 cycles as warm-up and counts the next. The buckets the
// calendar's ring grew by to hold events 16,384 cycles ahead come with
// their capacity, so what is left is the odd bucket outgrowing it: 0 / 0
// / 76 allocations in the batch at 1,024 / 8,192 / 65,536 pending
// events, against a bound of 0.15 per cycle. A closure or a sort.Slice
// swapper built per pop would be 1.0 or more.
func TestWheelSteadyStateAllocs(t *testing.T) {
	const batch = 20000
	for _, pending := range []int{1024, 8192, 65536} {
		op := steadyWheel(pending)
		perBatch := testing.AllocsPerRun(1, func() {
			for i := 0; i < batch; i++ {
				op()
			}
		})
		if perOp := perBatch / batch; perOp > 0.15 {
			t.Errorf("pending=%d: a steady schedule+pop cycle allocates %.3f times, want <= 0.15", pending, perOp)
		}
	}
}

func BenchmarkWheelSteady(b *testing.B) {
	for _, pending := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			b.ReportAllocs()
			op := steadyWheel(pending)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// BenchmarkWheelSchedulePop measures the two halves without a steady
// population: schedule b.N events then drain them, so the per-op cost
// of the bucket append and the sorted pop are visible in isolation.
func BenchmarkWheelSchedulePop(b *testing.B) {
	b.ReportAllocs()
	w := NewWheel(4096)
	rng := NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Schedule(int64(i)+int64(rng.Intn(64)), int32(i&1023))
	}
	w.PopDue(int64(b.N)+64, func(int32) {})
	if w.Len() != 0 {
		b.Fatal("wheel not drained")
	}
}

// BenchmarkWheelIdleJump measures a pathological drain tail: one event
// a million cycles ahead at a time. The calendar under the wheel walks
// every idle cycle to find it (about 1.7 ms an op on a 2-vCPU Xeon), and
// its ring grows to a million buckets to hold it.
func BenchmarkWheelIdleJump(b *testing.B) {
	b.ReportAllocs()
	w := NewWheel(4096)
	var now int64
	w.Schedule(1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.PopDue(now, func(id int32) {
			w.Schedule(now+1_000_000, id)
		})
		next, _ := w.NextAt()
		now = next
	}
}
