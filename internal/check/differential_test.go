package check_test

import (
	"fmt"
	"reflect"
	"testing"

	"highradix/internal/check"
	"highradix/internal/flit"
	"highradix/internal/router"
	"highradix/internal/sim"
)

// schedEntry is one packet of a precomputed injection schedule.
type schedEntry struct {
	cycle    int64
	src, dst int
	length   int
}

// makeSchedule builds a sparse deterministic schedule: every source
// emits a packet roughly every 40 cycles, far below any architecture's
// saturation point, so functional behavior — which flits get delivered
// and in what per-pair order — must be architecture-independent.
func makeSchedule(k int, seed uint64) []schedEntry {
	rng := sim.NewRNG(seed)
	var sched []schedEntry
	for src := 0; src < k; src++ {
		cycle := int64(rng.Intn(40))
		for cycle < 1200 {
			dst := rng.Intn(k)
			sched = append(sched, schedEntry{cycle: cycle, src: src, dst: dst, length: 1 + rng.Intn(3)})
			cycle += int64(30 + rng.Intn(20))
		}
	}
	return sched
}

type pair struct{ src, dst int }

type replayResult struct {
	// delivered maps every delivered flit to its eject cycle presence
	// (the set, not the timing, is compared across architectures).
	delivered map[flitID]bool
	// order is, per (src,dst) pair, the sequence of packet IDs whose
	// tails arrived, i.e. per-pair packet delivery order.
	order map[pair][]uint64
}

type flitID struct {
	pkt uint64
	seq int
}

// replay drives one architecture through the shared schedule with the
// checker armed and records what was delivered.
func replay(t *testing.T, cfg router.Config, sched []schedEntry) replayResult {
	t.Helper()
	w, err := check.Wrap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := int64(w.Config().STCycles)
	// Pending flits per source, injected strictly in schedule order on
	// VC 0 so the offered stream is identical for every architecture.
	// Packet IDs are assigned in schedule order, so they too agree
	// across architectures.
	pending := make([][]*flit.Flit, w.Config().Radix)
	var total int
	var pktID uint64
	for _, e := range sched {
		pktID++
		pending[e.src] = append(pending[e.src], flit.MakePacket(pktID, e.src, e.dst, 0, e.length, e.cycle, false)...)
		total += e.length
	}
	res := replayResult{delivered: make(map[flitID]bool), order: make(map[pair][]uint64)}
	injFree := make([]int64, len(pending))
	seen := 0
	for now := int64(0); now < 20000 && seen < total; now++ {
		for src, q := range pending {
			if len(q) == 0 || injFree[src] > now {
				continue
			}
			f := q[0]
			if f.CreatedAt > now || !w.CanAccept(src, 0) {
				continue
			}
			f.VC = 0
			w.Accept(now, f)
			injFree[src] = now + st
			pending[src] = q[1:]
		}
		w.Step(now)
		if err := w.Checker().Err(); err != nil {
			t.Fatalf("invariant violation during replay: %v", err)
		}
		for _, f := range w.Ejected() {
			res.delivered[flitID{f.PacketID, f.Seq}] = true
			if f.Tail {
				p := pair{f.Src, f.Dst}
				res.order[p] = append(res.order[p], f.PacketID)
			}
			seen++
		}
	}
	if seen != total {
		t.Fatalf("replay delivered %d of %d flits", seen, total)
	}
	if err := w.Checker().Final(20000); err != nil {
		t.Fatalf("final audit after replay: %v", err)
	}
	return res
}

// TestDifferentialAcrossArchitectures replays one injection schedule
// against every registered architecture's variants and asserts they
// agree on the functional outcome: the exact set of delivered flits,
// and the order in which packets of each (source, destination) pair
// complete. At low load these are implementation-independent; a
// divergence means one architecture dropped, duplicated or reordered
// traffic in a way the single-run checker happened not to witness.
// The config axis comes from the registry, so a newly registered
// architecture is differentially tested against the low-radix
// reference by construction.
func TestDifferentialAcrossArchitectures(t *testing.T) {
	const k = 8
	sched := makeSchedule(k, 0xd1f3)
	configs := map[string]router.Config{}
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		for _, vt := range d.Variants(k, 2) {
			configs[vt.Name] = vt.Config
		}
	}
	results := make(map[string]replayResult)
	for name, cfg := range configs {
		results[name] = replay(t, cfg, sched)
	}
	ref, ok := results["lowradix"]
	if !ok {
		t.Fatal("registry lost the lowradix reference architecture")
	}
	// Sanity: the reference delivered exactly the scheduled flits.
	var want int
	for _, e := range sched {
		want += e.length
	}
	if len(ref.delivered) != want {
		t.Fatalf("reference delivered %d flits, schedule has %d", len(ref.delivered), want)
	}
	for name, got := range results {
		if name == "lowradix" {
			continue
		}
		if !reflect.DeepEqual(got.delivered, ref.delivered) {
			t.Errorf("%s delivered a different flit set than lowradix (%d vs %d flits)",
				name, len(got.delivered), len(ref.delivered))
		}
		for p, seq := range ref.order {
			if !reflect.DeepEqual(got.order[p], seq) {
				t.Errorf("%s delivers packets %d->%d in order %v, lowradix in %v",
					name, p.src, p.dst, got.order[p], seq)
			}
		}
	}
	if t.Failed() {
		t.Log(diffSummary(results))
	}
}

func diffSummary(results map[string]replayResult) string {
	s := "per-arch delivered flit counts:"
	for name, r := range results {
		s += fmt.Sprintf(" %s=%d", name, len(r.delivered))
	}
	return s
}
