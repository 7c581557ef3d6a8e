package check_test

import (
	"strings"
	"testing"

	"highradix/internal/check"
	"highradix/internal/flit"
	"highradix/internal/router"
)

// newChecker builds a checker for a small lowradix router (terminal
// grant note "switch") with a 1-cycle serializer so timing-sensitive
// tests can schedule events freely.
func newChecker(t *testing.T) *check.Checker {
	t.Helper()
	return check.New(router.Config{Arch: router.ArchLowRadix, Radix: 4, VCs: 2, STCycles: 1})
}

func mkflit(pkt uint64, seq, length, src, dst, vc int) *flit.Flit {
	return &flit.Flit{
		PacketID:  pkt,
		Seq:       seq,
		Src:       src,
		Dst:       dst,
		VC:        vc,
		Head:      seq == 0,
		Tail:      seq == length-1,
		PacketLen: length,
	}
}

func accept(c *check.Checker, cycle int64, f *flit.Flit) {
	c.Observe(router.Event{Cycle: cycle, Kind: router.EvAccept, Flit: f, Input: f.Src, Output: f.Dst, VC: f.VC})
}

func eject(c *check.Checker, cycle int64, f *flit.Flit) {
	c.Observe(router.Event{Cycle: cycle, Kind: router.EvEject, Flit: f, Input: f.Src, Output: f.Dst, VC: f.VC})
}

// wantRule asserts the checker's first violation carries the rule.
func wantRule(t *testing.T, c *check.Checker, rule string) {
	t.Helper()
	err := c.Err()
	if err == nil {
		t.Fatalf("expected a %q violation, checker is clean", rule)
	}
	v, ok := err.(*check.Violation)
	if !ok {
		t.Fatalf("expected *check.Violation, got %T: %v", err, err)
	}
	if v.Rule != rule {
		t.Fatalf("expected rule %q, got %q (%v)", rule, v.Rule, v)
	}
}

func TestCleanRunPasses(t *testing.T) {
	c := newChecker(t)
	f0, f1 := mkflit(1, 0, 2, 0, 1, 0), mkflit(1, 1, 2, 0, 1, 0)
	accept(c, 0, f0)
	accept(c, 0, f1)
	if err := c.EndCycle(0, 2); err != nil {
		t.Fatal(err)
	}
	eject(c, 5, f0)
	eject(c, 6, f1)
	if err := c.EndCycle(6, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Final(7); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Packets; got != 1 {
		t.Fatalf("delivered packets = %d, want 1", got)
	}
	if c.Live() != 0 {
		t.Fatalf("live = %d after full drain", c.Live())
	}
}

func TestDuplicateAccept(t *testing.T) {
	c := newChecker(t)
	accept(c, 0, mkflit(1, 0, 1, 0, 1, 0))
	accept(c, 1, mkflit(1, 0, 1, 0, 1, 0))
	wantRule(t, c, "conservation.duplicate")
}

func TestEjectWithoutAccept(t *testing.T) {
	c := newChecker(t)
	eject(c, 0, mkflit(1, 0, 1, 0, 1, 0))
	wantRule(t, c, "conservation.loss")
}

func TestDoubleEject(t *testing.T) {
	c := newChecker(t)
	f := mkflit(1, 0, 1, 0, 1, 0)
	accept(c, 0, f)
	eject(c, 1, f)
	eject(c, 5, f)
	wantRule(t, c, "conservation.loss")
}

func TestFreeListAliasDetected(t *testing.T) {
	c := newChecker(t)
	f := mkflit(1, 0, 1, 0, 1, 0)
	accept(c, 0, f)
	// The same memory reborn as a new packet while still in flight:
	// exactly what an early FreeList.Put would produce.
	f.PacketID = 2
	accept(c, 1, f)
	wantRule(t, c, "conservation.alias")
}

func TestPacketIDZeroRejected(t *testing.T) {
	c := newChecker(t)
	accept(c, 0, mkflit(0, 0, 1, 0, 1, 0))
	wantRule(t, c, "flit.id")
}

func TestHeadTailShape(t *testing.T) {
	c := newChecker(t)
	f := mkflit(1, 0, 2, 0, 1, 0)
	f.Tail = true // head of a 2-flit packet claiming to be the tail
	accept(c, 0, f)
	wantRule(t, c, "flit.shape")
}

func TestAcceptOutOfOrder(t *testing.T) {
	c := newChecker(t)
	accept(c, 0, mkflit(1, 1, 3, 0, 1, 0)) // body before head
	wantRule(t, c, "order.accept")
}

func TestEjectOutOfOrder(t *testing.T) {
	c := newChecker(t)
	f0, f1 := mkflit(1, 0, 2, 0, 1, 0), mkflit(1, 1, 2, 0, 1, 0)
	accept(c, 0, f0)
	accept(c, 1, f1)
	eject(c, 5, f1) // tail before head
	wantRule(t, c, "order.packet")
}

func TestMisroutedEject(t *testing.T) {
	c := newChecker(t)
	f := mkflit(1, 0, 1, 0, 2, 0)
	accept(c, 0, f)
	c.Observe(router.Event{Cycle: 3, Kind: router.EvEject, Flit: f, Input: f.Src, Output: 1, VC: f.VC})
	wantRule(t, c, "flow.misroute")
}

func TestEjectSerializerSpacing(t *testing.T) {
	c := check.New(router.Config{Arch: router.ArchLowRadix, Radix: 4, VCs: 2, STCycles: 4})
	f0, f1 := mkflit(1, 0, 1, 0, 1, 0), mkflit(2, 0, 1, 2, 1, 1)
	accept(c, 0, f0)
	accept(c, 0, f1)
	eject(c, 4, f0)
	eject(c, 6, f1) // 2 < STCycles apart on the same output
	wantRule(t, c, "eject.serializer")
}

func TestVCOwnershipInterleave(t *testing.T) {
	c := newChecker(t)
	// Packet 1 (2 flits) claims output 1 VC 0 with its head; packet 2's
	// head must not appear on that VC before packet 1's tail.
	a0, a1 := mkflit(1, 0, 2, 0, 1, 0), mkflit(1, 1, 2, 0, 1, 0)
	b0 := mkflit(2, 0, 1, 2, 1, 0)
	accept(c, 0, a0)
	accept(c, 1, a1)
	accept(c, 1, b0)
	eject(c, 5, a0)
	eject(c, 7, b0)
	wantRule(t, c, "vc.busy")
	if !strings.Contains(c.Err().Error(), "owned by packet 1") {
		t.Fatalf("violation should name the owner: %v", c.Err())
	}
	_ = a1
}

func TestGrantForUnknownFlit(t *testing.T) {
	c := newChecker(t)
	f := mkflit(7, 0, 1, 0, 1, 0)
	c.Observe(router.Event{Cycle: 0, Kind: router.EvGrant, Flit: f, Input: 0, Output: 1, VC: 0, Note: "switch"})
	wantRule(t, c, "grant.stale")
}

func TestGrantFromEmptyInput(t *testing.T) {
	c := newChecker(t)
	// Baseline-style speculative grant (no flit) naming an input that
	// holds nothing.
	c.Observe(router.Event{Cycle: 0, Kind: router.EvGrant, Input: 2, Output: 1, VC: 0, Note: "switch"})
	wantRule(t, c, "grant.empty")
}

func TestGrantSerializerSpacing(t *testing.T) {
	c := check.New(router.Config{Arch: router.ArchLowRadix, Radix: 4, VCs: 2, STCycles: 4})
	f0, f1 := mkflit(1, 0, 1, 0, 1, 0), mkflit(2, 0, 1, 2, 1, 1)
	accept(c, 0, f0)
	accept(c, 0, f1)
	c.Observe(router.Event{Cycle: 1, Kind: router.EvGrant, Flit: f0, Input: 0, Output: 1, VC: 0, Note: "switch"})
	c.Observe(router.Event{Cycle: 2, Kind: router.EvGrant, Flit: f1, Input: 2, Output: 1, VC: 1, Note: "switch"})
	wantRule(t, c, "grant.serializer")
}

func creditEvent(cycle int64, in, out, vc, delta, depth int) router.Event {
	return router.Event{Cycle: cycle, Kind: router.EvCredit, Input: in, Output: out, VC: vc,
		Note: "xpoint", Delta: delta, Depth: depth}
}

func TestCreditOvercommit(t *testing.T) {
	c := newChecker(t)
	for i := 0; i < 3; i++ {
		c.Observe(creditEvent(int64(i), 0, 1, 0, -1, 2))
	}
	wantRule(t, c, "credit.overcommit")
}

func TestCreditOverflow(t *testing.T) {
	c := newChecker(t)
	c.Observe(creditEvent(0, 0, 1, 0, +1, 2))
	wantRule(t, c, "credit.overflow")
}

func TestCreditDepthMismatch(t *testing.T) {
	c := newChecker(t)
	c.Observe(creditEvent(0, 0, 1, 0, -1, 2))
	c.Observe(creditEvent(1, 0, 1, 0, +1, 4))
	wantRule(t, c, "credit.depth")
}

func TestCreditLeakAtFinal(t *testing.T) {
	c := newChecker(t)
	c.Observe(creditEvent(0, 0, 1, 0, -1, 2))
	if err := c.Final(10); err == nil {
		t.Fatal("expected a credit.leak violation")
	}
	wantRule(t, c, "credit.leak")
}

func TestConservationCount(t *testing.T) {
	c := newChecker(t)
	accept(c, 0, mkflit(1, 0, 1, 0, 1, 0))
	if err := c.EndCycle(0, 0); err == nil {
		t.Fatal("expected a conservation.count violation")
	}
	wantRule(t, c, "conservation.count")
}

// TestCountCheckExact: every architecture's occupancy is held to the
// event stream exactly, so a router reporting one flit more than it was
// handed fails the count — an over-count hides a flit counted twice
// exactly as an under-count hides one lost.
func TestCountCheckExact(t *testing.T) {
	for _, a := range router.Registered() {
		t.Run(a.String(), func(t *testing.T) {
			c := check.New(router.Config{Arch: a, Radix: 4, VCs: 2})
			accept(c, 0, mkflit(1, 0, 1, 0, 1, 0))
			if err := c.EndCycle(0, 1); err != nil {
				t.Fatalf("the true count fails: %v", err)
			}
			if err := c.EndCycle(1, 2); err == nil {
				t.Fatal("an over-count of one passes the conservation check")
			}
			wantRule(t, c, "conservation.count")
		})
	}
}

func TestUndrainedFinal(t *testing.T) {
	c := newChecker(t)
	accept(c, 0, mkflit(1, 0, 1, 0, 1, 0))
	if err := c.Final(100); err == nil {
		t.Fatal("expected a conservation.drain violation")
	}
	wantRule(t, c, "conservation.drain")
}

func TestWatchdogFires(t *testing.T) {
	c := newChecker(t)
	accept(c, 0, mkflit(1, 0, 1, 0, 1, 0))
	for now := int64(0); now <= check.WatchdogCycles; now++ {
		if err := c.EndCycle(now, 1); err != nil {
			t.Fatalf("watchdog fired early at cycle %d: %v", now, err)
		}
	}
	if err := c.EndCycle(check.WatchdogCycles+1, 1); err == nil {
		t.Fatal("expected the watchdog to fire")
	}
	wantRule(t, c, "progress.watchdog")
	if !strings.Contains(c.Err().Error(), "pkt=1") {
		t.Fatalf("certificate should name the stuck flit: %v", c.Err())
	}
}

func TestWatchdogResetByProgress(t *testing.T) {
	c := newChecker(t)
	f0 := mkflit(1, 0, 1, 0, 1, 0)
	accept(c, 0, f0)
	accept(c, 0, mkflit(2, 0, 1, 2, 3, 1))
	for now := int64(0); now < 8; now++ {
		if err := c.EndCycle(now, 2); err != nil {
			t.Fatal(err)
		}
	}
	eject(c, 8, f0) // progress: the clock restarts
	for now := int64(8); now <= 8+check.WatchdogCycles; now++ {
		if err := c.EndCycle(now, 1); err != nil {
			t.Fatalf("watchdog fired at cycle %d despite progress at 8: %v", now, err)
		}
	}
	if err := c.EndCycle(8+check.WatchdogCycles+1, 1); err == nil {
		t.Fatal("expected the watchdog to fire WatchdogCycles+1 cycles after the last eject")
	}
	wantRule(t, c, "progress.watchdog")
}

func TestFirstViolationSticks(t *testing.T) {
	c := newChecker(t)
	eject(c, 0, mkflit(1, 0, 1, 0, 1, 0)) // conservation.loss
	first := c.Err()
	accept(c, 1, mkflit(0, 0, 1, 0, 1, 0)) // would be flit.id
	if c.Err() != first {
		t.Fatalf("later events displaced the first violation: %v -> %v", first, c.Err())
	}
}

func TestCheckedRejectsOverfullAccept(t *testing.T) {
	w, err := check.Wrap(router.Config{Arch: router.ArchBuffered, Radix: 4, VCs: 1, InputBufDepth: 1, STCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	f0, f1 := mkflit(1, 0, 1, 0, 1, 0), mkflit(2, 0, 1, 0, 1, 0)
	w.Accept(0, f0)
	w.Accept(0, f1) // input 0 VC 0 is full: CanAccept is false
	if err := w.Checker().Err(); err == nil {
		t.Fatal("expected a flow.accept violation")
	}
	wantRule(t, w.Checker(), "flow.accept")
}
