package sweep

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"highradix/internal/cache"
)

// point is the smallest value RunCached can store.
type point struct{ V int64 }

func TestRunCachedHitSkipsCompute(t *testing.T) {
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(2)
	key := cache.NewKey("test/v1").Key()
	var computes atomic.Int64
	compute := func() (point, error) {
		computes.Add(1)
		return point{42}, nil
	}
	for i := 0; i < 3; i++ {
		v, hit, err := RunCached(p, st, key, true, compute)
		if err != nil || v.V != 42 || hit != (i > 0) {
			t.Fatalf("run %d: %d, hit=%v, %v", i, v, hit, err)
		}
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes, want 1 (warm runs must hit the store)", got)
	}
	// Uncacheable and storeless runs always compute.
	if _, _, err := RunCached(p, st, key, false, compute); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunCached[point](p, nil, key, true, compute); err != nil {
		t.Fatal(err)
	}
	if got := computes.Load(); got != 3 {
		t.Fatalf("%d computes, want 3", got)
	}
}

// TestRunCachedSingleFlight pins the dedup contract under the pool: N
// concurrent requests for one cold key run exactly one simulation and
// all receive its value.
func TestRunCachedSingleFlight(t *testing.T) {
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(4)
	key := cache.NewKey("test/v1").Key()
	var computes atomic.Int64
	const goroutines = 16
	var wg sync.WaitGroup
	vals := make([]point, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals[g], _, errs[g] = RunCached(p, st, key, true, func() (point, error) {
				computes.Add(1)
				return point{7}, nil
			})
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil || vals[g].V != 7 {
			t.Fatalf("goroutine %d: %d, %v", g, vals[g], errs[g])
		}
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes for one cold key, want 1", got)
	}
}

// TestRunCachedSelfHeals: a checksum-valid entry whose payload no
// longer decodes (a layout the decoder rejects) is never served — it
// is recomputed and overwritten.
func TestRunCachedSelfHeals(t *testing.T) {
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(1)
	key := cache.NewKey("test/v1").Key()
	if err := st.Put(key, []byte("not a point")); err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	compute := func() (point, error) {
		computes.Add(1)
		return point{9}, nil
	}
	if v, _, err := RunCached(p, st, key, true, compute); err != nil || v.V != 9 {
		t.Fatalf("self-heal run: %d, %v", v, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("stale entry served without recompute")
	}
	// The overwrite stuck: a second run hits the healed entry.
	if v, _, err := RunCached(p, st, key, true, compute); err != nil || v.V != 9 {
		t.Fatalf("post-heal run: %d, %v", v, err)
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("%d computes, want 1 after self-heal", got)
	}
}

func TestRunCachedErrorPropagates(t *testing.T) {
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := New(1)
	key := cache.NewKey("test/v1").Key()
	boom := fmt.Errorf("boom")
	if _, _, err := RunCached(p, st, key, true, func() (point, error) { return point{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	// A failed compute must not poison the key.
	if v, _, err := RunCached(p, st, key, true, func() (point, error) { return point{5}, nil }); err != nil || v.V != 5 {
		t.Fatalf("retry after error: %d, %v", v, err)
	}
}
