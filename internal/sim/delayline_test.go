package sim

import "testing"

func TestDelayLineLatency(t *testing.T) {
	d := NewDelayLine[int](3)
	d.Push(10, 42)
	for now := int64(10); now < 13; now++ {
		if _, ok := d.PopReady(now); ok {
			t.Fatalf("item visible at cycle %d, latency 3 pushed at 10", now)
		}
	}
	v, ok := d.PopReady(13)
	if !ok || v != 42 {
		t.Fatalf("PopReady(13) = %v,%v want 42,true", v, ok)
	}
}

func TestDelayLineZeroLatency(t *testing.T) {
	d := NewDelayLine[string](0)
	d.Push(5, "x")
	if v, ok := d.PopReady(5); !ok || v != "x" {
		t.Fatalf("zero-latency item not visible same cycle: %v %v", v, ok)
	}
}

func TestDelayLineFIFOWithinCycle(t *testing.T) {
	d := NewDelayLine[int](2)
	d.Push(0, 1)
	d.Push(0, 2)
	d.Push(1, 3)
	var got []int
	d.DrainReady(2, func(v int) { got = append(got, v) })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("DrainReady(2) = %v, want [1 2]", got)
	}
	d.DrainReady(3, func(v int) { got = append(got, v) })
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("after DrainReady(3): %v, want [1 2 3]", got)
	}
	if d.Len() != 0 {
		t.Fatalf("len = %d after full drain", d.Len())
	}
}

func TestDelayLineNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative latency did not panic")
		}
	}()
	NewDelayLine[int](-1)
}
