package flit

import (
	"reflect"
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

// TestResetWritesEveryField: a flit reborn from the free list equals a
// fresh one in every field, whatever its previous life left in it. Every
// field is set by reflection to a value no fresh flit of the packet
// below holds, so a field that reset forgets (a new one, say) keeps it
// and fails here by name.
func TestResetWritesEveryField(t *testing.T) {
	dirty := &Flit{}
	v := reflect.ValueOf(dirty).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(-1000 - int64(i))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(200 + uint64(i))
		case reflect.Bool:
			fv.SetBool(true)
		default:
			t.Fatalf("field %s: no dirty value for kind %s; add one", v.Type().Field(i).Name, fv.Kind())
		}
	}
	l := NewFreeList()
	l.Put(dirty)
	// The middle flit of a 3-flit unmeasured packet: neither head nor
	// tail, so every bool a fresh flit carries is false.
	got := l.Make(7, 1, 3, 9, 2, 3, 100, false)
	if got != dirty {
		t.Fatal("Make allocated a flit despite one on the free list")
	}
	want := MakePacket(7, 3, 9, 2, 3, 100, false)[1]
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); g != w {
			t.Errorf("field %s: recycled flit holds %v, a fresh one %v: reset does not write it", gv.Type().Field(i).Name, g, w)
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
