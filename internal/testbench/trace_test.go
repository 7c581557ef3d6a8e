package testbench

import (
	"sync"
	"testing"

	"highradix/internal/router"
	"highradix/internal/sim"
	"highradix/internal/traffic"
)

// TestTraceReplay drives a router from a recorded trace and checks the
// labeled-window accounting matches the trace contents.
func TestTraceReplay(t *testing.T) {
	rng := sim.NewRNG(3)
	tr := traffic.GenerateTrace(rng, 16, 2000, 0.03, 1, traffic.NewUniform(16))
	o := Options{
		Router:        router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2},
		Trace:         tr,
		WarmupCycles:  500,
		MeasureCycles: 1000,
		Seed:          3,
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	// Count trace packets generated inside the measurement window.
	want := int64(0)
	for _, e := range tr.Entries() {
		if e.Cycle >= 500 && e.Cycle < 1500 {
			want++
		}
	}
	if res.Packets != want {
		t.Fatalf("measured %d packets, trace has %d in the window", res.Packets, want)
	}
	if res.Saturated {
		t.Fatal("light trace replay saturated")
	}
}

// TestTraceReplayIgnoresLoad: a replay offers what its trace holds, so
// a Load left over from a synthetic run's options (hrsim's default 0.5)
// does not make a light trace read as saturated.
func TestTraceReplayIgnoresLoad(t *testing.T) {
	tr := traffic.GenerateTrace(sim.NewRNG(6), 16, 1500, 0.02, 1, traffic.NewUniform(16))
	res, err := Run(Options{
		Router:        router.Config{Arch: router.ArchHierarchical, Radix: 16, VCs: 4, SubSize: 4},
		Trace:         tr,
		Load:          0.5,
		WarmupCycles:  300,
		MeasureCycles: 900,
		Seed:          6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput > 0.1 || res.Saturated {
		t.Fatalf("light trace (throughput %.4f) saturated %v; want unsaturated", res.Throughput, res.Saturated)
	}
}

// TestTraceReplayDeterministic: the same trace through the same router
// gives bit-identical results.
func TestTraceReplayDeterministic(t *testing.T) {
	rng := sim.NewRNG(4)
	tr := traffic.GenerateTrace(rng, 16, 1500, 0.05, 2, traffic.NewUniform(16))
	run := func() Result {
		res, err := Run(Options{
			Router:        router.Config{Arch: router.ArchHierarchical, Radix: 16, VCs: 2, SubSize: 4},
			Trace:         tr,
			WarmupCycles:  300,
			MeasureCycles: 900,
			Seed:          4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.AvgLatency != b.AvgLatency || a.Packets != b.Packets {
		t.Fatalf("trace replay nondeterministic: %+v vs %+v", a, b)
	}
}

// TestTraceReplayValidatesPorts: NewTrace checks nothing (only LoadTrace
// parses outside input), so Run rejects an entry no router port or packet
// can carry with an error, not a panic inside the source bank.
func TestTraceReplayValidatesPorts(t *testing.T) {
	for what, e := range map[string]traffic.TraceEntry{
		"out-of-range source":      {Cycle: 0, Src: 99, Dst: 0, Len: 1},
		"out-of-range destination": {Cycle: 0, Src: 0, Dst: -1, Len: 1},
		"zero length":              {Cycle: 0, Src: 0, Dst: 1, Len: 0},
		"negative length":          {Cycle: 0, Src: 0, Dst: 1, Len: -2},
	} {
		_, err := Run(Options{
			Router: router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2},
			Trace:  traffic.NewTrace([]traffic.TraceEntry{e}),
		})
		if err == nil {
			t.Errorf("trace entry with %s accepted", what)
		}
	}
}

// TestSharedTraceConcurrentRuns: a trace is immutable and a replay's
// position is its bank's, so concurrent runs may share one trace and each
// sees all of it. A cursor inside the trace would be raced on, and would
// split the entries between the runs.
func TestSharedTraceConcurrentRuns(t *testing.T) {
	tr := traffic.GenerateTrace(sim.NewRNG(5), 16, 1500, 0.05, 2, traffic.NewUniform(16))
	o := Options{
		Router:        router.Config{Arch: router.ArchBuffered, Radix: 16, VCs: 2},
		Trace:         tr,
		WarmupCycles:  300,
		MeasureCycles: 900,
		Seed:          5,
	}
	want, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if want.Packets < 500 {
		t.Fatalf("vacuous: %d labeled packets", want.Packets)
	}
	var (
		wg   sync.WaitGroup
		res  [8]Result
		errs [8]error
	)
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = Run(o)
		}()
	}
	wg.Wait()
	for i := range res {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if res[i] != want {
			t.Errorf("run %d of 8 sharing the trace measured %+v, a run alone %+v", i, res[i], want)
		}
	}
}
