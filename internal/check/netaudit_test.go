package check_test

import (
	"testing"

	"highradix/internal/check"
	"highradix/internal/network"
)

// Compile-time proof the checker satisfies the network hook contract.
var _ network.Hooks = (*check.Checker)(nil)

func TestNetAuditorCleanRun(t *testing.T) {
	a := check.NewNetAuditor(4, 2, 2)
	f0, f1 := mkflit(1, 0, 2, 0, 3, 0), mkflit(1, 1, 2, 0, 3, 0)
	a.Injected(0, f0)
	a.Injected(2, f1)
	if err := a.EndCycle(2, 2); err != nil {
		t.Fatal(err)
	}
	a.Delivered(10, f0)
	a.Delivered(12, f1)
	if err := a.EndCycle(12, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Final(13); err != nil {
		t.Fatal(err)
	}
	if n := a.Stats().Packets; n != 1 {
		t.Fatalf("delivered packets = %d, want 1", n)
	}
}

func TestNetAuditorCatchesLoss(t *testing.T) {
	a := check.NewNetAuditor(4, 2, 2)
	a.Delivered(0, mkflit(1, 0, 1, 0, 3, 0))
	err := a.Err()
	if err == nil {
		t.Fatal("expected a conservation.loss violation")
	}
	if v := err.(*check.Violation); v.Rule != "conservation.loss" {
		t.Fatalf("expected conservation.loss, got %q", v.Rule)
	}
}

func TestNetAuditorCatchesSerializerOverlap(t *testing.T) {
	a := check.NewNetAuditor(4, 2, 4)
	f0, f1 := mkflit(1, 0, 1, 0, 3, 0), mkflit(2, 0, 1, 2, 3, 1)
	a.Injected(0, f0)
	a.Injected(0, f1)
	a.Delivered(8, f0)
	a.Delivered(10, f1) // 2 < SerCycles apart at the same terminal
	err := a.Err()
	if err == nil {
		t.Fatal("expected an eject.serializer violation")
	}
	if v := err.(*check.Violation); v.Rule != "eject.serializer" {
		t.Fatalf("expected eject.serializer, got %q", v.Rule)
	}
}

// TestNetAuditorCatchesInterleaving delivers the heads of two 2-flit
// packets from different sources to one terminal on one VC: the second
// head arrives while the first packet still owns the exit channel's VC,
// which is two wormholes interleaved.
func TestNetAuditorCatchesInterleaving(t *testing.T) {
	a := check.NewNetAuditor(4, 2, 2)
	h1, h2 := mkflit(1, 0, 2, 0, 3, 0), mkflit(2, 0, 2, 1, 3, 0)
	a.Injected(0, h1)
	a.Injected(0, h2)
	a.Delivered(10, h1)
	a.Delivered(12, h2)
	err := a.Err()
	if err == nil {
		t.Fatal("expected a vc.busy violation")
	}
	if v := err.(*check.Violation); v.Rule != "vc.busy" {
		t.Fatalf("expected vc.busy, got %q", v.Rule)
	}
}

func TestNetAuditorCatchesCountMismatch(t *testing.T) {
	a := check.NewNetAuditor(4, 2, 2)
	a.Injected(0, mkflit(1, 0, 1, 0, 3, 0))
	if err := a.EndCycle(0, 0); err == nil {
		t.Fatal("expected a conservation.count violation")
	}
}

func TestNetAuditorWatchdog(t *testing.T) {
	a := check.NewNetAuditor(4, 2, 2)
	a.Injected(0, mkflit(1, 0, 1, 0, 3, 0))
	for now := int64(0); now <= check.WatchdogCycles; now++ {
		if err := a.EndCycle(now, 1); err != nil {
			t.Fatalf("watchdog fired early at %d: %v", now, err)
		}
	}
	if err := a.EndCycle(check.WatchdogCycles+1, 1); err == nil {
		t.Fatal("expected the watchdog to fire")
	}
}
