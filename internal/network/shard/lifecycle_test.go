package shard

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"highradix/internal/flit"
	"highradix/internal/network"
)

// stopAt is a hook that ends the run at cycle at, by an audit error or,
// when panics is set, by a panic.
type stopAt struct {
	at     int64
	panics bool
}

var errStop = errors.New("audit stop")

func (h *stopAt) Injected(int64, *flit.Flit)  {}
func (h *stopAt) Delivered(int64, *flit.Flit) {}
func (h *stopAt) Final(int64) error           { return nil }
func (h *stopAt) EndCycle(now int64, _ int) error {
	switch {
	case now < h.at:
		return nil
	case h.panics:
		panic(errStop)
	}
	return errStop
}

// TestShardWorkersExit: the workers live exactly as long as their run.
// After a run that ends normally, one whose audit fails mid-run, one
// whose hook panics mid-run, and one whose options are refused before
// any worker starts, the goroutine count is back where it was.
func TestShardWorkersExit(t *testing.T) {
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// stop returns once every worker has signalled its exit; the
		// goroutines themselves end a moment later.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
			}
		}
	}
	o := baseOpts(testTopologies(t)["clos"], 1)
	if _, err := Run(Options{Options: o, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	settled("a normal run")

	failing := o
	failing.Hooks = &stopAt{at: 100}
	if _, err := Run(Options{Options: failing, Workers: 3}); !errors.Is(err, errStop) {
		t.Fatalf("audit error %v, want %v", err, errStop)
	}
	settled("a failed audit")

	panicking := o
	panicking.Hooks = &stopAt{at: 100, panics: true}
	func() {
		defer func() {
			if r := recover(); r != errStop {
				t.Fatalf("recovered %v, want the hook's panic", r)
			}
		}()
		Run(Options{Options: panicking, Workers: 3})
	}()
	settled("a panic")

	refused := o
	refused.Load = 8
	if _, err := Run(Options{Options: refused, Workers: 3}); err == nil {
		t.Fatal("load 8 accepted")
	}
	settled("refused options")
}

// TestShardOversubscribed runs more workers than processors: with one
// processor for three workers, every determinism topology must still
// equal the serial run, so the gate can neither livelock nor lose a
// wake-up.
func TestShardOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for name, topo := range testTopologies(t) {
		o := baseOpts(topo, 2)
		want, err := network.RunSerial(o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Options{Options: o, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s at GOMAXPROCS 1: sharded result diverged:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
