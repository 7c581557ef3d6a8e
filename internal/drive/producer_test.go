package drive_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"highradix/internal/drive"
	"highradix/internal/flit"
	"highradix/internal/network"
	"highradix/internal/router"
	"highradix/internal/sim"
	"highradix/internal/sweep"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// tbOpts is a small single-router run at load.
func tbOpts(load float64) testbench.Options {
	return testbench.Options{
		Router: router.Config{Arch: router.ArchHierarchical, Radix: 16, VCs: 2},
		Load:   load, WarmupCycles: 500, MeasureCycles: 3000, Seed: 7,
	}
}

// netOpts is a 64-terminal Clos run at load.
func netOpts(t *testing.T, load float64) network.Options {
	topo, err := network.NewClos(network.Config{Radix: 8, Digits: 2})
	if err != nil {
		t.Fatal(err)
	}
	return network.Options{Topo: topo, Load: load, WarmupCycles: 300, MeasureCycles: 1500, Seed: 7}
}

// eventLog records a network run's terminal events as text.
type eventLog struct{ events []string }

func (l *eventLog) Injected(now int64, f *flit.Flit) {
	l.events = append(l.events, fmt.Sprintf("%d in %#x.%d", now, f.PacketID, f.Seq))
}
func (l *eventLog) Delivered(now int64, f *flit.Flit) {
	l.events = append(l.events, fmt.Sprintf("%d out %#x.%d", now, f.PacketID, f.Seq))
}
func (l *eventLog) EndCycle(int64, int) error { return nil }
func (l *eventLog) Final(int64) error         { return nil }

// TestProducerTwins: a run whose draws a producer goroutine takes is the
// run whose consumer draws for itself, byte for byte — behind the single
// router in both injection modes, bursty, at a load low enough to jump
// and under the checker, and behind a network (whose sources draw per
// cycle), hooked and not.
func TestProducerTwins(t *testing.T) {
	runs := map[string]func(t *testing.T) []byte{}
	for name, mod := range map[string]func(*testbench.Options){
		"percycle":     func(*testbench.Options) {},
		"percycle/low": func(o *testbench.Options) { o.Load = 0.02 },
		"gap":          func(o *testbench.Options) { o.Injection = traffic.InjGap },
		"gap/low":      func(o *testbench.Options) { o.Injection, o.Load = traffic.InjGap, 0.02 },
		"bursty":       func(o *testbench.Options) { o.Bursty = true },
		"checked":      func(o *testbench.Options) { o.Check = true },
	} {
		runs["testbench/"+name] = func(t *testing.T) []byte {
			o := tbOpts(0.4)
			mod(&o)
			res, err := testbench.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			return testbench.EncodeResult(res)
		}
	}
	for _, hooked := range []bool{false, true} {
		runs[fmt.Sprintf("network/percycle/hooked=%t", hooked)] = func(t *testing.T) []byte {
			o := netOpts(t, 0.3)
			l := &eventLog{}
			if hooked {
				o.Hooks = l
			}
			res, err := network.Run(o)
			if err != nil {
				t.Fatal(err)
			}
			return append(network.EncodeResult(res), fmt.Sprint(l.events)...)
		}
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			drive.ForceProducers(t, false)
			alone := run(t)
			drive.ForceProducers(t, true)
			started := drive.WatchProducers(t)
			if ahead := run(t); !bytes.Equal(ahead, alone) {
				t.Errorf("with a producer goroutine the run encodes\n%q\nwithout\n%q", ahead, alone)
			}
			if started.Load() == 0 {
				t.Error("vacuous: no producer goroutine started")
			}
		})
	}
}

// stopAt is a network hook that ends the run at cycle at, by an audit
// error or, when panics is set, by a panic.
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

// panicky is a uniform pattern over 16 ports whose n-th destination
// panics. Unlike the patterns a run may share, it counts; it serves one
// bank.
type panicky struct{ n int }

var errPattern = errors.New("pattern panic")

func (p *panicky) Dest(src int, rng *sim.RNG) int {
	if p.n--; p.n == 0 {
		panic(errPattern)
	}
	return rng.Intn(16)
}

func (p *panicky) Name() string { return "panicky" }

// recovered runs f and returns what it panicked with.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestProducerExits: a producer goroutine lives exactly as long as its
// run. After a run that ends by the exit rule, one that reaches its
// bound, one whose audit fails, one whose hook panics and one whose
// pattern panics, the goroutine count is back where it was; and the
// pattern's panic reaches the caller, as it does with no producer.
func TestProducerExits(t *testing.T) {
	drive.ForceProducers(t, true)
	started := drive.WatchProducers(t)
	base := runtime.NumGoroutine()
	settled := func(what string) {
		t.Helper()
		// stopDraws returns once the producer has signalled its exit; the
		// goroutine itself ends a moment later.
		for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
			}
		}
	}

	if _, err := testbench.Run(tbOpts(0.3)); err != nil {
		t.Fatal(err)
	}
	settled("the exit rule")

	bound := tbOpts(1)
	bound.DrainCycles = 1
	if res, err := testbench.Run(bound); err != nil || res.Cycles != bound.WarmupCycles+bound.MeasureCycles+1 {
		t.Fatalf("a run at load 1 with a 1-cycle drain ran %d cycles (%v), want it to stop at its bound", res.Cycles, err)
	}
	settled("the bound")

	failing := netOpts(t, 0.3)
	failing.Hooks = &stopAt{at: 100}
	if _, err := network.Run(failing); !errors.Is(err, errStop) {
		t.Fatalf("audit error %v, want %v", err, errStop)
	}
	settled("a failed audit")

	panicking := netOpts(t, 0.3)
	panicking.Hooks = &stopAt{at: 100, panics: true}
	if r := recovered(func() { network.Run(panicking) }); r != errStop {
		t.Fatalf("recovered %v, want the hook's panic", r)
	}
	settled("a panicking hook")

	for _, producing := range []bool{true, false} {
		drive.ForceProducers(t, producing)
		o := tbOpts(0.3)
		o.Pattern = &panicky{n: 200}
		if r := recovered(func() { testbench.Run(o) }); r != errPattern {
			t.Fatalf("producer %t: recovered %v, want the pattern's panic", producing, r)
		}
		settled(fmt.Sprintf("a panicking pattern, producer %t", producing))
	}
	if started.Load() < 5 {
		t.Fatalf("vacuous: %d producer goroutines started", started.Load())
	}
}

// TestProducerBudget: a producer goroutine takes a CPU only the budget
// leaves spare. A lone run on two processors gets one; on one processor,
// or beside a second run in a two-worker sweep pool, none starts.
func TestProducerBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	started := drive.WatchProducers(t)
	run := func(int) (testbench.Result, error) { return testbench.Run(tbOpts(0.3)) }

	if _, err := run(0); err != nil || started.Load() != 1 {
		t.Fatalf("a lone run on two processors started %d producers (%v), want 1", started.Load(), err)
	}

	started.Store(0)
	runtime.GOMAXPROCS(1)
	if _, err := run(0); err != nil || started.Load() != 0 {
		t.Fatalf("a lone run on one processor started %d producers (%v)", started.Load(), err)
	}
	runtime.GOMAXPROCS(2)

	// Both runs count themselves before either decides, and neither
	// ends before both have decided: a run that ended first would leave
	// the other a CPU spare.
	drive.Rendezvous(t, 2)
	if _, err := sweep.Map(sweep.New(2), []int{0, 1}, run); err != nil || started.Load() != 0 {
		t.Fatalf("two runs in a two-worker pool started %d producers (%v)", started.Load(), err)
	}
}
