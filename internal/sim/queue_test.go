package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 100; i++ {
		q.MustPush(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueBounded(t *testing.T) {
	q := NewQueue[int](3)
	for i := 0; i < 3; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if q.Push(3) {
		t.Fatal("push accepted beyond capacity")
	}
	if !q.Full() || q.Free() != 0 {
		t.Fatalf("Full=%v Free=%d, want true/0", q.Full(), q.Free())
	}
	q.MustPop()
	if q.Full() || q.Free() != 1 {
		t.Fatalf("after pop Full=%v Free=%d, want false/1", q.Full(), q.Free())
	}
}

func TestQueueMustPushPanics(t *testing.T) {
	q := NewQueue[int](1)
	q.MustPush(1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustPush on full queue did not panic")
		}
	}()
	q.MustPush(2)
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue[string](0)
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty queue succeeded")
	}
	q.MustPush("a")
	q.MustPush("b")
	if v, _ := q.Peek(); v != "a" {
		t.Fatalf("peek = %q, want a", v)
	}
	if q.Len() != 2 {
		t.Fatalf("peek consumed items: len %d", q.Len())
	}
}

func TestQueueGrowthPreservesOrder(t *testing.T) {
	// Interleave pushes and pops so head wraps before growth.
	q := NewQueue[int](0)
	next, expect := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			q.MustPush(next)
			next++
		}
		for i := 0; i < 3; i++ {
			if v := q.MustPop(); v != expect {
				t.Fatalf("round %d: got %d want %d", round, v, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		if v := q.MustPop(); v != expect {
			t.Fatalf("drain: got %d want %d", v, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d items, pushed %d", expect, next)
	}
}

// TestQueueModel property-checks the queue against a slice model under
// random operation sequences.
func TestQueueModel(t *testing.T) {
	err := quick.Check(func(ops []uint8, capSel uint8) bool {
		capacity := int(capSel % 5) // 0 = unbounded
		q := NewQueue[int](capacity)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				okQ := q.Push(next)
				okM := capacity == 0 || len(model) < capacity
				if okQ != okM {
					return false
				}
				if okM {
					model = append(model, next)
				}
				next++
			} else {
				v, ok := q.Pop()
				if ok != (len(model) > 0) {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQueueCapAndNegativeCapacity(t *testing.T) {
	if NewQueue[int](3).Free() != 3 {
		t.Fatal("capacity wrong")
	}
	q := NewQueue[int](-5) // negative means unbounded
	if q.Full() {
		t.Fatal("negative capacity not treated as unbounded")
	}
	for i := 0; i < 100; i++ {
		q.MustPush(i)
	}
	if q.Free() < 1<<30 {
		t.Fatalf("unbounded Free() = %d", q.Free())
	}
}
