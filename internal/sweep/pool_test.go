package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 32} {
		p := New(workers)
		items := make([]int, 100)
		for i := range items {
			items[i] = i
		}
		outs, err := Map(p, items, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			if o != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, o, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	var inFlight, peak atomic.Int64
	_, err := Map(p, make([]int, 64), func(int) (int, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrent jobs, pool size %d", got, workers)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	p := New(8)
	items := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	_, err := Map(p, items, func(i int) (int, error) {
		if i >= 3 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "job 3 failed" {
		t.Fatalf("want the lowest-index error (job 3), got %v", err)
	}
}

func TestDo(t *testing.T) {
	p := New(2)
	v, err := Do(p, func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("Do = %q, %v", v, err)
	}
	wantErr := errors.New("boom")
	if _, err := Do(p, func() (string, error) { return "", wantErr }); err != wantErr {
		t.Fatalf("Do error = %v, want %v", err, wantErr)
	}
}

// TestGatherNestsWithoutDeadlock is the composition the experiments
// package relies on: many composite tasks, each submitting leaf jobs
// to a pool of one. If composite tasks held worker slots this would
// deadlock immediately.
func TestGatherNestsWithoutDeadlock(t *testing.T) {
	p := New(1)
	cases := []int{0, 1, 2, 3, 4, 5, 6, 7}
	outs, err := Gather(cases, func(c int) (int, error) {
		sum := 0
		leaf, err := Map(p, []int{1, 2, 3}, func(x int) (int, error) { return c * x, nil })
		if err != nil {
			return 0, err
		}
		for _, v := range leaf {
			sum += v
		}
		extra, err := Do(p, func() (int, error) { return c, nil })
		if err != nil {
			return 0, err
		}
		return sum + extra, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for c, o := range outs {
		if want := 6*c + c; o != want {
			t.Fatalf("case %d = %d, want %d", c, o, want)
		}
	}
}

// TestCurveMatchesSerial checks the tentpole guarantee: the curve a
// parallel pool produces is byte-identical to the serial early-stopping
// sweep, for every pool size and every saturation position.
func TestCurveMatchesSerial(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	for satAt := 0; satAt <= len(xs); satAt++ {
		run := func(x float64) (Point, error) {
			return Point{Y: 100 * x, Saturated: x >= xs[0]+float64(satAt)*0.1-1e-9 && satAt < len(xs)}, nil
		}
		serial, err := Curve(New(1), "s", xs, run)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			par, err := Curve(New(workers), "s", xs, run)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("satAt=%d workers=%d: parallel curve %+v != serial %+v", satAt, workers, par, serial)
			}
		}
		wantLen := satAt + 1
		if satAt == len(xs) {
			wantLen = len(xs)
		}
		if len(serial.Points) != wantLen {
			t.Fatalf("satAt=%d: %d points, want truncation at %d", satAt, len(serial.Points), wantLen)
		}
	}
}

// TestCurveErrors pins Curve's error contract at every pool size: a
// failure at or below the first saturated index returns the
// lowest-index error, the one the serial loop would hit first, and a
// failure past that index — a point run only as lookahead — is not
// returned.
func TestCurveErrors(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8}
	const satAt = 4
	errAt := func(i int) error { return fmt.Errorf("point %d failed", i) }
	for _, tc := range []struct {
		fail []int
		want error // nil: the curve truncated at satAt
	}{
		{[]int{2, 3}, errAt(2)},
		{[]int{3, 8}, errAt(3)},
		{[]int{satAt}, errAt(satAt)},
		{[]int{satAt + 1, satAt + 2}, nil},
	} {
		for _, workers := range []int{1, 2, 4, 16} {
			s, err := Curve(New(workers), "e", xs, func(x float64) (Point, error) {
				for _, i := range tc.fail {
					if int(x) == i {
						return Point{}, errAt(i)
					}
				}
				return Point{Y: x, Saturated: int(x) >= satAt}, nil
			})
			if fmt.Sprint(err) != fmt.Sprint(tc.want) {
				t.Fatalf("fail %v, workers=%d: error %v, want %v", tc.fail, workers, err, tc.want)
			}
			if tc.want == nil && len(s.Points) != satAt+1 {
				t.Fatalf("fail %v, workers=%d: %d points, want %d", tc.fail, workers, len(s.Points), satAt+1)
			}
		}
	}
}

// TestCurveBoundsWaste verifies the sliding-window launcher: once a
// point saturates, at most lookahead-1 points past it ever run,
// regardless of pool size — the fix for parallel curve sweeps costing
// more wall-clock than serial ones once scheduling interleaves work
// past saturation.
func TestCurveBoundsWaste(t *testing.T) {
	const workers = 4
	p := New(workers)
	lookahead := min(workers, runtime.GOMAXPROCS(0))
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	const satIndex = 1 // x = 2 saturates
	var mu sync.Mutex
	ran := map[float64]bool{}
	_, err := Curve(p, "w", xs, func(x float64) (Point, error) {
		mu.Lock()
		ran[x] = true
		mu.Unlock()
		return Point{Y: x, Saturated: x >= xs[satIndex]}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs[:satIndex+1] {
		if !ran[x] {
			t.Fatalf("required point %v never ran", x)
		}
	}
	if max := satIndex + lookahead; len(ran) > max {
		t.Fatalf("%d points ran, want at most %d (saturation index %d + lookahead %d overshoot)",
			len(ran), max, satIndex, lookahead)
	}
	for _, x := range xs[satIndex+lookahead:] {
		if ran[x] {
			t.Fatalf("point %v ran outside the lookahead window past saturation", x)
		}
	}
}

// TestCurveSlowSaturationNoChurn is the timing-adversarial case: the
// saturating point is slow and every later point is fast. A launcher
// gated only on in-flight count would churn through the whole tail
// while the slow point runs; the sliding window must still cap
// overshoot at lookahead-1 points.
func TestCurveSlowSaturationNoChurn(t *testing.T) {
	const workers = 8
	p := New(workers)
	lookahead := min(workers, runtime.GOMAXPROCS(0))
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	const satIndex = 2
	var ranCount atomic.Int64
	_, err := Curve(p, "slow", xs, func(x float64) (Point, error) {
		ranCount.Add(1)
		if int(x) == satIndex+1 {
			// The saturating point is the slow one; every later point
			// is instantaneous and would churn if the launcher let it.
			time.Sleep(30 * time.Millisecond)
			return Point{Y: x, Saturated: true}, nil
		}
		return Point{Y: x, Saturated: false}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if max := int64(satIndex + lookahead); ranCount.Load() > max {
		t.Fatalf("%d points ran, want at most %d: launcher churned past a slow saturating point", ranCount.Load(), max)
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if New(0).workers < 1 {
		t.Fatal("default pool has no workers")
	}
	if got := New(7).workers; got != 7 {
		t.Fatalf("workers = %d, want 7", got)
	}
}
