package network

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"highradix/internal/drive"
	"highradix/internal/sweep"
)

// TestMutationLookaheadSkew seeds an off-by-one into the epoch length —
// one cycle beyond what the lookahead bound permits — and demands the
// determinism suite's core comparison catch it. If this test fails, the
// suite has lost its teeth: a synchronization-window bug would ship
// silently.
func TestMutationLookaheadSkew(t *testing.T) {
	testLookaheadSkew = 1
	defer func() { testLookaheadSkew = 0 }()
	if !someWorkerDiverges(t) {
		t.Fatal("lookahead off-by-one was not detected by the serial-equivalence check")
	}
}

// TestMutationUnorderedMerge disables the canonical barrier merge order
// and demands the suite catch the resulting worker-order dependence.
func TestMutationUnorderedMerge(t *testing.T) {
	testUnorderedMerge = true
	defer func() { testUnorderedMerge = false }()
	if !someWorkerDiverges(t) {
		t.Fatal("unordered mailbox merge was not detected by the serial-equivalence check")
	}
}

// someWorkerDiverges runs a slice of the determinism matrix under the
// currently seeded mutation and reports whether any sharded run
// diverges from its one-engine twin in Result or event stream. The
// configs lean on tight buffers and moderate load so cross-shard
// credits are on the critical path — the regime where synchronization
// bugs surface.
func someWorkerDiverges(t *testing.T) bool {
	t.Helper()
	ring := mustTorus(t, TorusConfig{X: 8, Y: 1, VCs: 4, BufDepth: 2})
	clos := mustClos(t, Config{Radix: 4, Digits: 2, VCs: 2, BufDepth: 2})
	for _, topo := range []Topology{ring, clos} {
		for seed := uint64(1); seed <= 2; seed++ {
			base := Options{Topo: topo, Load: 0.65, WarmupCycles: 80, MeasureCycles: 160, Seed: seed}
			wantRec := &recHooks{}
			hooked := base
			hooked.Hooks = wantRec
			want, err := RunSerial(base)
			if err != nil {
				t.Fatal(err)
			}
			wantHooked, err := RunSerial(hooked)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 3} {
				got, err := RunSharded(base, p)
				if err != nil {
					t.Fatal(err)
				}
				gotRec := &recHooks{}
				hooked.Hooks = gotRec
				gotHooked, err := RunSharded(hooked, p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want || gotHooked != wantHooked || !slices.Equal(gotRec.events, wantRec.events) {
					return true
				}
			}
		}
	}
	return false
}

// TestShardEpochSteadyStateAllocs gates the sharded hot path: once the
// free lists, calendars, outboxes and record slices have warmed up, an
// epoch allocates nothing — the workers are started once per run and
// handed each epoch through their gates, so what is left is slice growth
// at a new high-water mark. It fails when a shard recycles the flits it
// delivers instead of sending them home (in a Clos the sources' shard
// then allocates every flit it generates, ~3 KB per cycle here), and
// when an epoch starts goroutines (the per-phase goroutines this gate
// replaced cost 0.1–0.3 KB per cycle).
func TestShardEpochSteadyStateAllocs(t *testing.T) {
	topo := mustClos(t, Config{Radix: 8, Digits: 2})
	for _, p := range []int{2, 3} {
		o := Options{Topo: topo, Load: 0.5, Seed: 1}.WithDefaults()
		// The window never opens, so the bare Tally is never asked for a
		// latency sample.
		c := drive.Config{Warmup: 1 << 40}
		s := &sharded{}
		s.start(o, topo, c, p, func() {})
		defer s.stop()
		tally := &drive.Tally{}
		run := func(from, to int64) {
			for now := from; now < to; now++ {
				if err := s.Cycle(now, c.At(now), tally); err != nil {
					t.Fatal(err)
				}
			}
		}
		const cycles = 1000
		run(0, cycles)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(cycles, 2*cycles)
		runtime.ReadMemStats(&after)
		if tally.Flits == 0 {
			t.Fatal("vacuous: nothing was delivered")
		}
		if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle >= 64 {
			t.Errorf("workers=%d: %d bytes allocated per cycle in steady state, want < 64", p, perCycle)
		}
	}
}

// watchWorkers records the worker count every Run chooses (1 for the
// one-engine world) until t ends. With n > 1 every Run also waits twice
// until n runs have reached the same point: once drive.Run has counted
// it, so none chooses before all are counted, and once it has chosen,
// so none ends, returning its claim, before all have chosen.
func watchWorkers(t *testing.T, n int) *[]int {
	var (
		mu              sync.Mutex
		chosen          []int
		counted, choose sync.WaitGroup
	)
	counted.Add(n)
	choose.Add(n)
	testHookCounted = func() {
		if n > 1 {
			counted.Done()
			counted.Wait()
		}
	}
	testHookChose = func(workers int) {
		mu.Lock()
		chosen = append(chosen, workers)
		mu.Unlock()
		if n > 1 {
			choose.Done()
			choose.Wait()
		}
	}
	t.Cleanup(func() { testHookCounted, testHookChose = nil, nil })
	return &chosen
}

// budgetOpts is a short run over topo.
func budgetOpts(topo Topology) Options {
	return Options{Topo: topo, Load: 0.3, WarmupCycles: 60, MeasureCycles: 120, Seed: 3}
}

// TestRunWorkersFromBudget: Run shards a network of at least
// 2*shardTerminals terminals over the CPUs the budget leaves spare,
// counting itself first, and its Result is the one-engine world's
// whatever it chose. A lone run on two processors takes the second; on
// one it runs alone; on eight it still takes only the one worker per
// shardTerminals terminals the floor allows; and two runs in a two-slot
// sweep pool, both counted before either chooses, leave each other
// nothing, so neither shards. No run chooses more workers than
// GOMAXPROCS leaves it.
func TestRunWorkersFromBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	topo := mustClos(t, Config{Radix: 64, Digits: 2})
	if topo.Terminals() != 2*shardTerminals {
		t.Fatalf("the threshold network has %d terminals, want %d", topo.Terminals(), 2*shardTerminals)
	}
	o := budgetOpts(topo)
	want, err := RunSerial(o)
	if err != nil {
		t.Fatal(err)
	}
	if want.Packets == 0 {
		t.Fatal("vacuous: no packets measured")
	}
	for _, tc := range []struct{ procs, workers int }{{2, 2}, {1, 1}, {8, 2}} {
		runtime.GOMAXPROCS(tc.procs)
		chosen := watchWorkers(t, 1)
		got, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(*chosen, []int{tc.workers}) {
			t.Errorf("a lone run at GOMAXPROCS %d chose %v workers, want [%d]", tc.procs, *chosen, tc.workers)
		}
		if got != want {
			t.Errorf("GOMAXPROCS %d: Run diverged from the one-engine world:\n got %+v\nwant %+v", tc.procs, got, want)
		}
	}

	runtime.GOMAXPROCS(2)
	chosen := watchWorkers(t, 2)
	got, err := sweep.Map(sweep.New(2), []int{0, 1}, func(int) (Result, error) { return Run(o) })
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(*chosen, []int{1, 1}) {
		t.Errorf("two runs in a two-slot pool chose %v workers, want [1 1]", *chosen)
	}
	if got[0] != want || got[1] != want {
		t.Errorf("pooled runs diverged from the one-engine world:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunSmallNetworksStaySerial: no network below 2*shardTerminals
// terminals shards, however many CPUs are spare — the rows DESIGN.md's
// size rule was measured on, the Clos of Quick Fig 19 among them, and
// the topology extension's ring and torus.
func TestRunSmallNetworksStaySerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	topos := []Topology{
		mustClos(t, Config{Radix: 32, Digits: 2}),
		mustClos(t, Config{Radix: 8, Digits: 3}),
		mustClos(t, Config{Radix: 16, Digits: 2}),
		mustClos(t, Config{Radix: 4, Digits: 4}),
		mustTorus(t, TorusConfig{X: 16, Y: 1}),
		mustTorus(t, TorusConfig{X: 4, Y: 4}),
	}
	chosen := watchWorkers(t, 1)
	for _, topo := range topos {
		if _, err := Run(budgetOpts(topo)); err != nil {
			t.Fatal(err)
		}
	}
	if len(*chosen) != len(topos) || slices.ContainsFunc(*chosen, func(w int) bool { return w != 1 }) {
		t.Errorf("%d runs below the threshold chose %v workers, want 1 each", len(topos), *chosen)
	}
}
