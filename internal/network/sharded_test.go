package network

import (
	"fmt"
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

// TestArrivalOrderImmaterial holds the epoch exchange to the invariant
// that lets it take mail in any order: each input queue is fed by one
// channel, which carries at most one flit per cycle, so a cycle's
// arrivals land the same in any order, and credits commute. Over the
// determinism topologies at packet lengths 1 and 4 it steps a
// two-engine Layout twice through SetOutbox, PutFlits and PutCredits,
// handing the mail over at every epoch edge as the runner does: once as
// sent, once with every inbox and every credit list reversed. Both must
// eject the same flits in the same cycles and order, and hold the same
// count in flight after every cycle.
func TestArrivalOrderImmaterial(t *testing.T) {
	topos := map[string]Topology{
		"clos":  mustClos(t, Config{Radix: 4, Digits: 2, VCs: 2, BufDepth: 4}),
		"ring":  mustTorus(t, TorusConfig{X: 8, Y: 1, VCs: 4, BufDepth: 4}),
		"torus": mustTorus(t, TorusConfig{X: 3, Y: 3, VCs: 4, BufDepth: 4}),
	}
	for name, topo := range topos {
		for _, pktLen := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/pkt%d", name, pktLen), func(t *testing.T) {
				o := Options{Topo: topo, Load: 0.45, PktLen: pktLen, WarmupCycles: 100, MeasureCycles: 400, Seed: 1}.WithDefaults()
				sent, reversed := stepMail(topo, o, false), stepMail(topo, o, true)
				if sent.shared == 0 || len(sent.ejected) == 0 {
					t.Fatalf("vacuous: %d ejections, %d inboxes holding two flits that land in one cycle", len(sent.ejected), sent.shared)
				}
				if i := mismatch(sent.ejected, reversed.ejected); i >= 0 {
					t.Fatalf("ejection %d differs with the mail reversed:\n  sent     %v\n  reversed %v", i, nth(sent.ejected, i), nth(reversed.ejected, i))
				}
				if i := mismatch(sent.inFlight, reversed.inFlight); i >= 0 {
					t.Fatalf("cycle %d, engine %d: %v flits in flight as sent, %v with the mail reversed", i/2, i%2, nth(sent.inFlight, i), nth(reversed.inFlight, i))
				}
			})
		}
	}
}

// ejection is one flit an engine ejected.
type ejection struct {
	at             int64
	engine         int
	pkt            uint64
	seq, dst, hops int
}

// mailRun is what stepMail saw: every ejection, the in-flight count of
// engine e after cycle c at 2c+e, and how many (inbox, arrival cycle)
// pairs held two flits or more.
type mailRun struct {
	ejected  []ejection
	inFlight []int
	shared   int
}

// stepMail runs o over a two-engine layout of topo for its warm-up and
// measurement cycles, stepping both engines every cycle and exchanging
// their mail every Lookahead cycles, each inbox and credit list reversed
// when reverse is set.
func stepMail(topo Topology, o Options, reverse bool) (r mailRun) {
	l := Layout{Routers: Partition(topo.Routers(), 2), Terminals: Partition(topo.Terminals(), 2)}
	ws := []*World{NewWorld(o, topo, l, 0), NewWorld(o, topo, l, 1)}
	out := [][]Outbox{make([]Outbox, 2), make([]Outbox, 2)}
	c := drive.Config{Warmup: o.WarmupCycles, Measure: o.MeasureCycles, Dense: true}
	epoch := int64(Lookahead(topo))
	var inbox []Arrival
	var credits []CreditMail
	for from := int64(0); from < c.Warmup+c.Measure; from += epoch {
		for j, w := range ws {
			inbox, credits = inbox[:0], credits[:0]
			for i := range ws {
				inbox = append(inbox, out[i][j].Flits...)
				credits = append(credits, out[i][j].Credits...)
			}
			perCycle := map[uint32]int{}
			for _, a := range inbox {
				if perCycle[a.At]++; perCycle[a.At] == 2 {
					r.shared++
				}
			}
			if reverse {
				slices.Reverse(inbox)
				slices.Reverse(credits)
			}
			w.Net.PutFlits(inbox, from)
			w.Net.PutCredits(credits, from)
		}
		for i, w := range ws {
			w.Net.SetOutbox(out[i])
		}
		for now := from; now < from+epoch; now++ {
			for i, w := range ws {
				for _, f := range w.Advance(now, c.At(now)) {
					r.ejected = append(r.ejected, ejection{now, i, f.PacketID, f.Seq, f.Dst, f.Hops})
				}
				r.inFlight = append(r.inFlight, w.InFlight())
			}
		}
	}
	return r
}

// mismatch returns the first index at which a and b differ, or -1.
func mismatch[T comparable](a, b []T) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// nth returns s[i], or "none" past its end.
func nth[T any](s []T, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "none"
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
