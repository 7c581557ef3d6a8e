package core_test

import (
	"testing"

	"highradix/internal/flit"
	"highradix/internal/router/core"
)

// BenchmarkInputBankPushPop measures the accept/pop round trip of one
// input VC, the innermost operation of every architecture's input
// stage. The front-cache refresh is part of the cost on purpose: it is
// what the step loops buy their scan-free eligibility checks with.
func BenchmarkInputBankPushPop(b *testing.B) {
	bank := core.MakeBase(core.Obs{}, 64, 4, 16, 1).In
	f := flit.MakePacket(1, 7, 3, 2, 1, 0, false)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		bank.Accept(int64(n), f)
		bank.Pop(7, 2)
	}
}

// BenchmarkInputBankScan measures a full occupied scan plus front reads
// at a typical low-load occupancy (4 of 64 inputs holding flits).
func BenchmarkInputBankScan(b *testing.B) {
	bank := core.MakeBase(core.Obs{}, 64, 4, 16, 1).In
	for _, src := range []int{3, 17, 40, 63} {
		bank.Accept(0, flit.MakePacket(uint64(src), src, 1, 0, 1, 0, false)[0])
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for n := 0; n < b.N; n++ {
		for i := bank.NextOccupied(0); i >= 0; i = bank.NextOccupied(i + 1) {
			for c := range bank.Fronts(i) {
				fr := bank.Front(i, c)
				if fr.Inj != core.FrontNone {
					sink += int(fr.Dst)
				}
			}
		}
	}
	_ = sink
}

// BenchmarkLedgerSpendReturn measures the spend/return pair with no
// observer attached, the configuration every simulation sweep runs in.
func BenchmarkLedgerSpendReturn(b *testing.B) {
	l := core.MakeLedger(core.Obs{}, "xpoint", 64*64*4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		l.Spend(int64(n), 1234, 0, 19, 1)
		l.Return(int64(n), 1234, 0, 19, 1)
	}
}

// BenchmarkEjectPipe measures the push/drain cycle of the shared
// ejection pipe with one flit in flight.
func BenchmarkEjectPipe(b *testing.B) {
	p := core.MakeEjectPipe(4, 64)
	owner := core.MakeVCOwnerTable(64, 4)
	f := flit.MakePacket(1, 0, 5, 1, 2, 0, false)[0] // head, not tail: no owner churn
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		now := int64(n * 5)
		p.Push(now, 5, f)
		for d := int64(1); d <= 4; d++ {
			p.BeginCycle(now+d, &owner, core.Obs{})
		}
	}
}

// BenchmarkIdleNextWake measures the O(1) quiescence test drivers run
// every cycle to decide whether a router's Step can be skipped: NextWake
// of an empty base. It must stay a pair of counter reads — independent
// of radix.
func BenchmarkIdleNextWake(b *testing.B) {
	base := core.MakeBase(core.Obs{}, 64, 4, 16, 4)
	b.ReportAllocs()
	b.ResetTimer()
	sink := int64(0)
	for n := 0; n < b.N; n++ {
		sink += base.NextWake(int64(n))
	}
	_ = sink
}

// BenchmarkEjectPipeNextWake measures the calendar's NextAt with one
// flit in flight: a scan of at most the eject delay's buckets, not
// O(radix).
func BenchmarkEjectPipeNextWake(b *testing.B) {
	p := core.MakeEjectPipe(4, 64)
	f := flit.MakePacket(1, 0, 5, 1, 1, 0, false)[0]
	p.Push(0, 5, f)
	b.ReportAllocs()
	b.ResetTimer()
	sink := int64(0)
	for n := 0; n < b.N; n++ {
		sink += p.NextWake()
	}
	_ = sink
}
