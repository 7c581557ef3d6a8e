package core_test

import (
	"strings"
	"testing"

	"highradix/internal/flit"
	"highradix/internal/router/core"
	"highradix/internal/sim"
)

func TestSerializer(t *testing.T) {
	b := core.NewSerializerBank(3)
	if !b.Free(0, 0) {
		t.Fatal("fresh serializer not free")
	}
	b.Reserve(1, 10, 4)
	for now := int64(10); now < 14; now++ {
		if b.Free(1, now) {
			t.Fatalf("free at %d inside reservation", now)
		}
	}
	if !b.Free(1, 14) || !b.Free(0, 10) || !b.Free(2, 10) {
		t.Fatal("bank reservation wrong")
	}
	// A zero-length reservation holds the port until its start cycle.
	b.Reserve(2, 20, 0)
	if b.Free(2, 19) || !b.Free(2, 20) {
		t.Fatal("zero-length reservation wrong")
	}
}

func TestVCOwnerTable(t *testing.T) {
	tab := core.MakeVCOwnerTable(4, 2)
	if !tab.FreeVC(1, 0) {
		t.Fatal("fresh table not free")
	}
	tab.Acquire(1, 0, 7)
	if tab.FreeVC(1, 0) {
		t.Fatal("acquired VC reported free")
	}
	if !tab.OwnedBy(1, 0, 7) || tab.OwnedBy(1, 0, 8) {
		t.Fatal("ownership wrong")
	}
	if !tab.FreeVC(1, 1) || !tab.FreeVC(2, 0) {
		t.Fatal("unrelated VCs affected")
	}
	tab.Release(1, 0, 7)
	if !tab.FreeVC(1, 0) {
		t.Fatal("release did not free")
	}
}

// mustPanic runs fn and asserts it panics with a message carrying the
// shared violation prefix and the given context fragment, so every
// flow-control violation in the codebase reports port/VC context the
// same way.
func mustPanic(t *testing.T, fragment string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected a flow-control panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v is not a string", r)
		}
		if !strings.HasPrefix(msg, "router: ") {
			t.Fatalf("panic %q lacks the router: prefix", msg)
		}
		if !strings.Contains(msg, fragment) {
			t.Fatalf("panic %q does not mention %q", msg, fragment)
		}
	}()
	fn()
}

func TestVCOwnerDoubleAcquirePanics(t *testing.T) {
	tab := core.MakeVCOwnerTable(2, 1)
	tab.Acquire(0, 0, 1)
	mustPanic(t, "port 0 VC 0", func() { tab.Acquire(0, 0, 2) })
}

func TestVCOwnerForeignReleasePanics(t *testing.T) {
	tab := core.MakeVCOwnerTable(2, 1)
	tab.Acquire(0, 0, 1)
	mustPanic(t, "port 0 VC 0", func() { tab.Release(0, 0, 2) })
}

func TestEjectPipeFixedDelay(t *testing.T) {
	// Pushes at cycle t surface exactly delay cycles later, in push
	// order.
	const delay = 3
	p := core.MakeEjectPipe(delay, 8)
	owner := core.MakeVCOwnerTable(3, 1)
	fa := flit.MakePacket(1, 0, 0, 0, 1, 0, false)[0]
	fb := flit.MakePacket(2, 0, 1, 0, 1, 0, false)[0]
	fc := flit.MakePacket(3, 0, 2, 0, 1, 0, false)[0]
	pushes := map[int64][]*flit.Flit{
		5: {fa, fb},
		6: {fc},
	}
	var got []uint64
	for now := int64(5); now <= 9; now++ {
		p.BeginCycle(now, &owner, core.Obs{})
		for _, f := range p.Ejected() {
			if want := f.InjectedAt + delay; now != want {
				t.Fatalf("flit %d ejected at cycle %d, want %d", f.PacketID, now, want)
			}
			got = append(got, f.PacketID)
		}
		for _, f := range pushes[now] {
			f.InjectedAt = now
			// Single-flit packets release the output VC on ejection, so
			// their packet must own it when they enter the pipe.
			owner.Acquire(f.Dst, f.VC, f.PacketID)
			p.Push(now, f.Dst, f)
		}
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("eject order %v, want [1 2 3]", got)
	}
	if p.Len() != 0 {
		t.Fatalf("pipe not empty after drains: %d", p.Len())
	}
	if !owner.FreeVC(0, 0) || !owner.FreeVC(1, 0) || !owner.FreeVC(2, 0) {
		t.Fatal("tail ejection did not release the output VC")
	}
}

func TestEjectPipeEmitsEject(t *testing.T) {
	p := core.MakeEjectPipe(1, 8)
	owner := core.MakeVCOwnerTable(1, 1)
	var events []core.Event
	obs := core.Obs{O: core.ObserverFunc(func(e core.Event) { events = append(events, e) })}
	f := flit.MakePacket(9, 0, 0, 0, 2, 0, false)[0] // head of a 2-flit packet: no release
	p.Push(0, 0, f)
	p.BeginCycle(1, &owner, obs)
	if len(events) != 1 || events[0].Kind != core.EvEject || events[0].Flit != f || events[0].Output != 0 {
		t.Fatalf("eject event wrong: %+v", events)
	}
}

func TestCreditBusOneCreditPerCycle(t *testing.T) {
	b := core.MakeCreditBus(2, 8, 4, 8)
	// Queue three credits at different crosspoints of row 1 in the same
	// cycle, and one on row 0: rows are independent buses.
	b.Enqueue(1, 0, 1)
	b.Enqueue(1, 3, 0)
	b.Enqueue(1, 7, 2)
	b.Enqueue(0, 5, 1)
	var delivered [2]int
	for now := int64(0); now < 10; now++ {
		before := delivered
		b.Step(now, func(row, output, vc int) { delivered[row]++ })
		if delivered[1]-before[1] > 1 {
			t.Fatalf("cycle %d delivered %d credits on one row; the shared bus carries one", now, delivered[1]-before[1])
		}
		if now == 1 && delivered != [2]int{1, 1} {
			t.Fatalf("after the first wire hop delivered %v, want one credit per row", delivered)
		}
	}
	if delivered != [2]int{1, 3} {
		t.Fatalf("delivered %v, want [1 3]", delivered)
	}
	if b.Pending() != 0 {
		t.Fatalf("%d credits pending after drain", b.Pending())
	}
}

func TestCreditBusPreservesIdentity(t *testing.T) {
	b := core.MakeCreditBus(3, 4, 2, 8)
	b.Enqueue(1, 2, 3)
	type cred struct{ row, o, v int }
	var got []cred
	for now := int64(0); now < 5; now++ {
		b.Step(now, func(row, o, v int) { got = append(got, cred{row, o, v}) })
	}
	if len(got) != 1 || got[0] != (cred{1, 2, 3}) {
		t.Fatalf("credit identity mangled: %v", got)
	}
}

func TestLedgerSpendReturn(t *testing.T) {
	var events []core.Event
	obs := core.Obs{O: core.ObserverFunc(func(e core.Event) { events = append(events, e) })}
	l := core.MakeLedger(obs, "xpoint", 6, 2)
	if !l.Avail(3) {
		t.Fatal("fresh pool has no credit")
	}
	l.Spend(10, 3, 1, 2, 0)
	l.Spend(11, 3, 1, 2, 0)
	if l.Avail(3) {
		t.Fatal("drained pool reports credit")
	}
	if !l.Avail(2) {
		t.Fatal("unrelated pool affected")
	}
	l.Return(12, 3, 1, 2, 0)
	if !l.Avail(3) {
		t.Fatal("returned credit not available")
	}
	if len(events) != 3 {
		t.Fatalf("got %d credit events, want 3", len(events))
	}
	e := events[0]
	if e.Kind != core.EvCredit || e.Note != "xpoint" || e.Delta != -1 || e.Depth != 2 ||
		e.Input != 1 || e.Output != 2 || e.VC != 0 || e.Cycle != 10 {
		t.Fatalf("spend event wrong: %+v", e)
	}
	if events[2].Delta != +1 {
		t.Fatalf("return event wrong: %+v", events[2])
	}
}

func TestLedgerViolationsPanic(t *testing.T) {
	l := core.MakeLedger(core.Obs{}, "subin", 2, 1)
	mustPanic(t, "in=0 out=5 vc=1", func() { l.Return(0, 0, 0, 5, 1) })
	l2 := core.MakeLedger(core.Obs{}, "subin", 2, 1)
	l2.Spend(0, 1, 3, 4, 0)
	mustPanic(t, "in=3 out=4 vc=0", func() { l2.Spend(1, 1, 3, 4, 0) })
}

func TestActiveSet(t *testing.T) {
	s := core.MakeActiveSet(8)
	if s.Next(0) != -1 {
		t.Fatal("empty set has an active index")
	}
	s.Inc(3)
	s.Inc(3)
	s.Inc(6)
	if s.Count(3) != 2 || s.Count(6) != 1 {
		t.Fatal("counts wrong")
	}
	var seen []int
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		seen = append(seen, i)
	}
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 6 {
		t.Fatalf("iteration %v, want [3 6]", seen)
	}
	s.Dec(3)
	if s.Next(0) != 3 {
		t.Fatal("index deactivated while count positive")
	}
	s.Dec(3)
	if s.Next(0) != 6 {
		t.Fatal("index still active at count zero")
	}
	s.Dec(6)
	mustPanic(t, "index 6", func() { s.Dec(6) })
}

func mkBank(inputs, vcs, depth int) core.InputBank {
	return core.MakeBase(core.Obs{}, inputs, vcs, depth, 1).In
}

func TestInputBankAcceptPop(t *testing.T) {
	b := mkBank(2, 2, 2)
	if !b.CanAccept(1, 1) || b.Count(1) != 0 || b.Buffered() != 0 {
		t.Fatal("fresh bank wrong")
	}
	fr := b.Front(1, 1)
	if fr.Inj != core.FrontNone || fr.OutVC != -1 {
		t.Fatal("fresh front wrong")
	}
	pkt := flit.MakePacket(5, 1, 0, 1, 2, 0, false)
	b.Accept(10, pkt[0])
	if fr.Inj != 10 || fr.Pkt != 5 || fr.Dst != 0 || !fr.Head {
		t.Fatalf("front not refreshed on accept: %+v", fr)
	}
	b.Accept(11, pkt[1])
	if fr.Inj != 10 || !fr.Head {
		t.Fatal("front overwritten by a non-front accept")
	}
	if b.CanAccept(1, 1) {
		t.Fatal("full buffer accepts")
	}
	if !b.CanAccept(1, 0) {
		t.Fatal("sibling VC blocked")
	}
	if b.Count(1) != 2 || b.Buffered() != 2 || b.Len(1, 1) != 2 {
		t.Fatal("occupancy wrong")
	}
	fr.OutVC = 3 // allocator state must survive the pop
	f := b.Pop(1, 1)
	if f != pkt[0] {
		t.Fatal("pop returned wrong flit")
	}
	if fr.Inj != 11 || fr.Pkt != 5 || fr.Head {
		t.Fatalf("front not refreshed on pop: %+v", fr)
	}
	if fr.OutVC != 3 {
		t.Fatal("OutVC lost on pop")
	}
	if !b.CanAccept(1, 1) {
		t.Fatal("full bit stuck after pop")
	}
	b.Pop(1, 1)
	if fr.Inj != core.FrontNone {
		t.Fatal("front of empty buffer not cleared")
	}
	if b.Buffered() != 0 || b.NextOccupied(0) != -1 {
		t.Fatal("bank not empty after draining")
	}
}

func TestInputBankOverflowPanics(t *testing.T) {
	b := mkBank(1, 1, 1)
	b.Accept(0, flit.MakePacket(1, 0, 0, 0, 1, 0, false)[0])
	mustPanic(t, "input 0 VC 0", func() {
		b.Accept(1, flit.MakePacket(2, 0, 0, 0, 1, 0, false)[0])
	})
}

func TestInputBankEmptyPopPanics(t *testing.T) {
	b := mkBank(2, 2, 1)
	mustPanic(t, "input 1 VC 0", func() { b.Pop(1, 0) })
}

// TestFIFOBankMatchesQueue drives a FIFOBank and a bank of sim.Queue
// oracles through the same random push/peek/pop stream: many FIFOs
// sharing one slab must behave as independent bounded queues, at every
// depth from 1 to 8 and long enough that every ring wraps many times.
func TestFIFOBankMatchesQueue(t *testing.T) {
	const fifos = 13
	rng := sim.NewRNG(0xf1f0)
	for depth := 1; depth <= 8; depth++ {
		bank := new(core.Base).MakeFIFOBank(fifos, depth)
		oracle := make([]*sim.Queue[*flit.Flit], fifos)
		for i := range oracle {
			oracle[i] = sim.NewQueue[*flit.Flit](depth)
		}
		wraps := make([]int, fifos)
		for op := 0; op < 4000; op++ {
			i := rng.Intn(fifos)
			if want, _ := oracle[i].Peek(); bank.Peek(i) != want {
				t.Fatalf("depth %d op %d: Peek(%d) = %v, oracle %v", depth, op, i, bank.Peek(i), want)
			}
			if bank.Len(i) != oracle[i].Len() {
				t.Fatalf("depth %d op %d: Len(%d) = %d, oracle %d", depth, op, i, bank.Len(i), oracle[i].Len())
			}
			if push := rng.Bernoulli(0.55); push && !oracle[i].Full() {
				f := &flit.Flit{PacketID: uint64(op)}
				oracle[i].MustPush(f)
				if n := bank.Push(i, f); n != oracle[i].Len() {
					t.Fatalf("depth %d op %d: Push(%d) reported occupancy %d, oracle %d", depth, op, i, n, oracle[i].Len())
				}
				wraps[i]++
			} else if !push && oracle[i].Len() > 0 {
				want := oracle[i].MustPop()
				next, _ := oracle[i].Peek()
				if f, nf := bank.Pop(i); f != want || nf != next {
					t.Fatalf("depth %d op %d: Pop(%d) = (%v, %v), oracle (%v, %v)", depth, op, i, f, nf, want, next)
				}
			}
		}
		for i, n := range wraps {
			if n < 4*depth {
				t.Fatalf("depth %d: FIFO %d saw only %d pushes; the ring never wrapped", depth, i, n)
			}
		}
	}
}

func TestFIFOBankViolationsPanic(t *testing.T) {
	b := new(core.Base).MakeFIFOBank(3, 2)
	mustPanic(t, "FIFO 1 popped while empty", func() { b.Pop(1) })
	b.Push(1, &flit.Flit{})
	b.Push(1, &flit.Flit{})
	mustPanic(t, "credit accounting bug", func() { b.Push(1, &flit.Flit{}) })
	if b.Len(0) != 0 || b.Len(2) != 0 || b.Peek(0) != nil {
		t.Fatal("a full FIFO leaked into its neighbours")
	}
	mustPanic(t, "FIFO depth 0", func() { new(core.Base).MakeFIFOBank(1, 0) })
	mustPanic(t, "FIFO depth 65536", func() { new(core.Base).MakeFIFOBank(1, core.MaxFIFODepth+1) })
}
