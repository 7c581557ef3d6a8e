package flit

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMakePacketStructure(t *testing.T) {
	err := quick.Check(func(lenSel uint8) bool {
		n := int(lenSel%20) + 1
		flits := MakePacket(7, 3, 9, 2, n, 100, true)
		if len(flits) != n {
			return false
		}
		for i, f := range flits {
			ok := f.PacketID == 7 && f.Src == 3 && f.Dst == 9 && f.VC == 2 &&
				f.Seq == i && f.PacketLen == n && f.CreatedAt == 100 && f.Measured &&
				f.Head == (i == 0) && f.Tail == (i == n-1)
			if !ok {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMakePacketSingleFlit(t *testing.T) {
	f := MakePacket(1, 0, 1, 0, 1, 0, false)[0]
	if !f.Head || !f.Tail {
		t.Fatalf("single-flit packet head=%v tail=%v, want both", f.Head, f.Tail)
	}
}

func TestMakePacketPanicsOnZeroLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-length packet did not panic")
		}
	}()
	MakePacket(1, 0, 1, 0, 0, 0, false)
}

// TestFreeListMatchesMakePacket checks that recycled packets are
// field-for-field identical to freshly allocated ones, even when the
// recycled flits carry stale state from a previous, longer life.
func TestFreeListMatchesMakePacket(t *testing.T) {
	l := NewFreeList()
	// Give the list dirty flits: a long packet with every mutable field
	// touched the way a router would.
	for _, f := range MakePacket(99, 5, 6, 3, 8, 42, true) {
		f.VC = 3
		f.Hops = 4
		f.InjectedAt = 77
		l.Put(f)
	}
	got := l.MakePacket(7, 3, 9, 2, 5, 100, true)
	want := MakePacket(7, 3, 9, 2, 5, 100, true)
	if len(got) != len(want) {
		t.Fatalf("recycled packet has %d flits, want %d", len(got), len(want))
	}
	for i := range got {
		if *got[i] != *want[i] {
			t.Errorf("flit %d: recycled %+v != fresh %+v", i, *got[i], *want[i])
		}
	}
}

func TestFreeListRecycles(t *testing.T) {
	l := NewFreeList()
	first := l.MakePacket(1, 0, 1, 0, 3, 0, false)
	ptrs := map[*Flit]bool{}
	for _, f := range first {
		ptrs[f] = true
		l.Put(f)
	}
	second := l.MakePacket(2, 1, 2, 0, 3, 5, true)
	for _, f := range second {
		if !ptrs[f] {
			t.Errorf("flit %p was freshly allocated despite %d free flits", f, len(ptrs))
		}
		if f.PacketID != 2 || f.CreatedAt != 5 || !f.Measured {
			t.Errorf("recycled flit carries stale identity: %+v", f)
		}
	}
}

func TestFreeListPanicsOnZeroLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-length packet did not panic")
		}
	}()
	NewFreeList().MakePacket(1, 0, 1, 0, 0, 0, false)
}

func TestFlitString(t *testing.T) {
	cases := []struct {
		f    *Flit
		want string
	}{
		{MakePacket(1, 2, 3, 0, 1, 0, false)[0], "single"},
		{MakePacket(1, 2, 3, 0, 3, 0, false)[0], "head"},
		{MakePacket(1, 2, 3, 0, 3, 0, false)[1], "body"},
		{MakePacket(1, 2, 3, 0, 3, 0, false)[2], "tail"},
	}
	for _, c := range cases {
		if s := c.f.String(); !strings.Contains(s, c.want) {
			t.Errorf("String() = %q, want it to contain %q", s, c.want)
		}
	}
}
