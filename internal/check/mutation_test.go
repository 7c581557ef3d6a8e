package check_test

import (
	"testing"

	"highradix/internal/check"
	"highradix/internal/flit"
	"highradix/internal/router"
)

// driveBuffered injects a burst of single-flit packets into a buffered
// router whose events pass through filter before reaching the checker,
// steps the router until it drains, and returns the checker and the
// final cycle. The filter seeds event-level mutations — dropping or
// duplicating a credit return behaves exactly like a router that leaks
// or double-frees a buffer slot.
func driveBuffered(t *testing.T, filter func(router.Event) []router.Event) (*check.Checker, int64) {
	t.Helper()
	cfg := router.Config{Arch: router.ArchBuffered, Radix: 4, VCs: 2, STCycles: 1}
	chk := check.New(cfg)
	cfg.Observer = router.ObserverFunc(func(e router.Event) {
		for _, out := range filter(e) {
			chk.Observe(out)
		}
	})
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkt uint64
	for i := 0; i < 4; i++ {
		for n := 0; n < 2; n++ {
			pkt++
			f := flit.MakePacket(pkt, i, (i+1+n)%4, n%2, 1, 0, false)[0]
			if !r.CanAccept(f.Src, f.VC) {
				t.Fatalf("input %d vc %d full during setup", f.Src, f.VC)
			}
			f.VC = n % 2
			r.Accept(0, f)
		}
	}
	var now int64
	for now = 1; now < 500; now++ {
		r.Step(now)
		if err := chk.Err(); err != nil {
			return chk, now
		}
		if r.InFlight() == 0 {
			break
		}
	}
	if r.InFlight() != 0 {
		t.Fatalf("router failed to drain in 500 cycles")
	}
	return chk, now
}

func passthrough(e router.Event) []router.Event { return []router.Event{e} }

// TestMutationControl establishes the baseline: with no mutation the
// same drive is violation-free end to end.
func TestMutationControl(t *testing.T) {
	chk, now := driveBuffered(t, passthrough)
	if err := chk.Err(); err != nil {
		t.Fatalf("unmutated run reported a violation: %v", err)
	}
	if err := chk.Final(now); err != nil {
		t.Fatalf("unmutated run failed Final: %v", err)
	}
	if chk.Stats().Credits == 0 {
		t.Fatal("drive exercised no credit events; the mutation tests would be vacuous")
	}
}

// TestSeededCreditLeakCaught drops a single credit-return event — the
// observable signature of a router that forgets to free a crosspoint
// slot. The per-cycle checks stay clean (an occupied-looking slot is
// legal) but the end-of-run audit must report the leak.
func TestSeededCreditLeakCaught(t *testing.T) {
	dropped := false
	chk, now := driveBuffered(t, func(e router.Event) []router.Event {
		if !dropped && e.Kind == router.EvCredit && e.Delta > 0 {
			dropped = true
			return nil
		}
		return []router.Event{e}
	})
	if !dropped {
		t.Fatal("no credit return was observed to drop")
	}
	if err := chk.Err(); err != nil {
		t.Fatalf("per-cycle checks should tolerate an outstanding credit: %v", err)
	}
	err := chk.Final(now)
	if err == nil {
		t.Fatal("checker missed the seeded credit leak")
	}
	if v, ok := err.(*check.Violation); !ok || v.Rule != "credit.leak" {
		t.Fatalf("expected a credit.leak violation, got %v", err)
	}
}

// TestSeededDoubleCreditCaught duplicates a credit return — a
// double-free. The pool goes below zero outstanding, which the checker
// must flag immediately.
func TestSeededDoubleCreditCaught(t *testing.T) {
	duplicated := false
	chk, _ := driveBuffered(t, func(e router.Event) []router.Event {
		if !duplicated && e.Kind == router.EvCredit && e.Delta > 0 {
			duplicated = true
			return []router.Event{e, e}
		}
		return []router.Event{e}
	})
	if !duplicated {
		t.Fatal("no credit return was observed to duplicate")
	}
	err := chk.Err()
	if err == nil {
		t.Fatal("checker missed the duplicated credit return")
	}
	if v, ok := err.(*check.Violation); !ok || v.Rule != "credit.overflow" {
		t.Fatalf("expected a credit.overflow violation, got %v", err)
	}
}

// TestSeededLostFlitCaught suppresses an eject event — a lost flit.
// Conservation against the router's own occupancy fails the same cycle.
func TestSeededLostFlitCaught(t *testing.T) {
	lost := false
	cfg := router.Config{Arch: router.ArchBuffered, Radix: 4, VCs: 2, STCycles: 1}
	chk := check.New(cfg)
	cfg.Observer = router.ObserverFunc(func(e router.Event) {
		if !lost && e.Kind == router.EvEject {
			lost = true
			return
		}
		chk.Observe(e)
	})
	r, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := flit.MakePacket(1, 0, 1, 0, 1, 0, false)[0]
	r.Accept(0, f)
	var got error
	for now := int64(1); now < 100; now++ {
		r.Step(now)
		if got = chk.EndCycle(now, r.InFlight()); got != nil {
			break
		}
	}
	if got == nil {
		t.Fatal("checker missed the suppressed eject")
	}
	if v, ok := got.(*check.Violation); !ok || v.Rule != "conservation.count" {
		t.Fatalf("expected a conservation.count violation, got %v", got)
	}
}
