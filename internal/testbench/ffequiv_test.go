package testbench

import (
	"fmt"
	"testing"

	"highradix/internal/router"
	"highradix/internal/sim"
	"highradix/internal/traffic"
)

// Fast-forwarding must be invisible: a run with NoFastForward set and
// one without must produce the same microarchitectural event stream,
// the same Result (including Cycles), and the same checker verdict.
// These twins are the executable form of the exactness argument in
// DESIGN.md's quiescence section.

// recEvent is an Event projected onto value content: the Flit pointer
// is replaced by its (PacketID, Seq) identity because flits are
// recycled through a free list and pointers differ across runs.
type recEvent struct {
	Cycle         int64
	Kind          router.EventKind
	Input, Output int
	VC            int
	Note          string
	Delta, Depth  int
	PacketID      uint64
	Seq           int
}

func recorder(dst *[]recEvent) router.ObserverFunc {
	return func(e router.Event) {
		re := recEvent{
			Cycle: e.Cycle, Kind: e.Kind, Input: e.Input,
			Output: e.Output, VC: e.VC, Note: e.Note,
			Delta: e.Delta, Depth: e.Depth,
		}
		if e.Flit != nil {
			re.PacketID = e.Flit.PacketID
			re.Seq = e.Flit.Seq
		}
		*dst = append(*dst, re)
	}
}

// runTwins executes o twice — fast-forwarding and dense — and fails
// unless event streams, results and errors are identical.
func runTwins(t *testing.T, o Options) {
	t.Helper()
	run := func(noFF bool) ([]recEvent, Result, error) {
		var events []recEvent
		tw := o
		tw.NoFastForward = noFF
		tw.Router.Observer = recorder(&events)
		res, err := Run(tw)
		return events, res, err
	}
	ffEv, ffRes, ffErr := run(false)
	dEv, dRes, dErr := run(true)
	if (ffErr == nil) != (dErr == nil) ||
		(ffErr != nil && ffErr.Error() != dErr.Error()) {
		t.Fatalf("error mismatch: fast-forward %v, dense %v", ffErr, dErr)
	}
	if ffRes != dRes {
		t.Fatalf("result mismatch:\nfast-forward %+v\ndense        %+v", ffRes, dRes)
	}
	if len(ffEv) != len(dEv) {
		t.Fatalf("event count mismatch: fast-forward %d, dense %d", len(ffEv), len(dEv))
	}
	for i := range ffEv {
		if ffEv[i] != dEv[i] {
			t.Fatalf("event %d mismatch:\nfast-forward %+v\ndense        %+v", i, ffEv[i], dEv[i])
		}
	}
}

func TestFastForwardTwin(t *testing.T) {
	archs := []router.Arch{
		router.ArchLowRadix, router.ArchBaseline, router.ArchBuffered,
		router.ArchSharedXpoint, router.ArchHierarchical,
	}
	for _, a := range archs {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			// A checked run exercises the drain-tail time jump (injection
			// stops at the end of the window); the moderate load leaves a
			// real tail to fast-forward across.
			o := quickOpts(router.Config{Arch: a, Radix: 16, VCs: 2}, 0.5)
			o.Check = true
			runTwins(t, o)
		})
		t.Run(a.String()+"/bursty", func(t *testing.T) {
			o := quickOpts(router.Config{Arch: a, Radix: 8, VCs: 2}, 0.3)
			o.Check = true
			o.Bursty = true
			runTwins(t, o)
		})
	}
}

// Trace replays fast-forward across inter-packet gaps as well as the
// drain tail, with and without the checker.
func TestFastForwardTwinTrace(t *testing.T) {
	rng := sim.NewRNG(7)
	// A sparse trace (big idle gaps) over a small radix: the dense run
	// crawls through every empty cycle, the fast-forwarded one jumps.
	tr := traffic.GenerateTrace(rng, 8, 400, 0.01, 3, traffic.NewUniform(8))
	for _, chk := range []bool{false, true} {
		chk := chk
		t.Run(fmt.Sprintf("check=%v", chk), func(t *testing.T) {
			o := quickOpts(router.Config{Arch: router.ArchHierarchical, Radix: 8, VCs: 2}, 0)
			o.Trace = traffic.NewTrace(tr.Entries())
			o.Check = chk
			runTwins(t, o)
		})
	}
}

// FuzzFastForwardEquivalence drives random (arch, load, seed) triples
// through the twin check so the corpus can explore loads and seeds the
// table-driven test does not.
func FuzzFastForwardEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(100), uint64(1))
	f.Add(uint8(2), uint8(240), uint64(42))
	f.Add(uint8(4), uint8(30), uint64(7))
	// Loads at which a per-cycle run is mostly jumps: none at all, and a
	// packet per source every thousand and every few hundred cycles.
	f.Add(uint8(1), uint8(0), uint64(3))
	f.Add(uint8(3), uint8(1), uint64(11))
	f.Add(uint8(0), uint8(3), uint64(5))
	f.Fuzz(func(t *testing.T, archB, loadB uint8, seed uint64) {
		archs := []router.Arch{
			router.ArchLowRadix, router.ArchBaseline, router.ArchBuffered,
			router.ArchSharedXpoint, router.ArchHierarchical,
		}
		o := Options{
			Router:        router.Config{Arch: archs[int(archB)%len(archs)], Radix: 8, VCs: 2},
			Load:          float64(loadB) / 255,
			WarmupCycles:  200,
			MeasureCycles: 400,
			Seed:          seed,
			Check:         true,
		}
		runTwins(t, o)
	})
}
