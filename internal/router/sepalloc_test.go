package router

import (
	"slices"
	"testing"

	"highradix/internal/flit"
)

// These tests pin the separable allocator's bidding rules on a radix-4,
// 4-VC low-radix router with one-cycle traversal, by driving Step and
// reading the front cache.

func newTestSepAlloc() *lowRadix {
	return newLowRadix(Config{Arch: ArchLowRadix, Radix: 4, VCs: 4, STCycles: 1}.WithDefaults())
}

// testFlit is flit seq of an n-flit packet id entering input src on vc
// for output dst.
func testFlit(id uint64, seq, n, src, vc, dst int) *flit.Flit {
	return &flit.Flit{PacketID: id, Seq: seq, PacketLen: n, Src: src, Dst: dst, VC: vc, Head: seq == 0, Tail: seq == n-1}
}

// TestSepAllocBlockedHeadRotates: a head whose output has no free VC
// advances its rotation once per cycle it bids, and when VCs free up it
// takes the first free one at or after the rotation, wrapping.
func TestSepAllocBlockedHeadRotates(t *testing.T) {
	for blocked := 0; blocked < 6; blocked++ {
		r := newTestSepAlloc()
		for ov := 0; ov < 4; ov++ {
			r.Owner.Acquire(2, ov, uint64(100+ov))
		}
		r.Accept(0, testFlit(1, 0, 1, 1, 2, 2))
		fr := r.In.Front(1, 2)
		for now := int64(0); now <= int64(blocked); now++ {
			r.Step(now)
		}
		if fr.OutVC != -1 || int(fr.Rot) != blocked%4 {
			t.Fatalf("blocked %d cycles: OutVC %d Rot %d, want -1 and %d", blocked, fr.OutVC, fr.Rot, blocked%4)
		}
		r.Owner.Release(2, 0, 100)
		r.Owner.Release(2, 2, 102)
		r.Step(int64(blocked) + 1)
		want := int16(2) // first of {0, 2} at or after Rot, wrapping
		if rot := blocked % 4; rot == 0 || rot == 3 {
			want = 0
		}
		if fr.OutVC != want || int(fr.Rot) != blocked%4 {
			t.Errorf("blocked %d cycles: granted VC %d with Rot %d, want VC %d, Rot unchanged", blocked, fr.OutVC, fr.Rot, want)
		}
	}
}

// TestSepAllocGrantRotation: an output VC's grant goes to the first
// requester at or after its pointer in flat input-VC order (input*VCs +
// vc), wrapping, and the pointer moves one past the winner.
func TestSepAllocGrantRotation(t *testing.T) {
	r := newTestSepAlloc()
	for ov := 1; ov < 4; ov++ {
		r.Owner.Acquire(0, ov, uint64(100+ov)) // only VC 0 of output 0 is free
	}
	// Flat indices 4, 11 and 14 bid at once; 1 joins after the first
	// grant, when the pointer stands at 5. Lowest-first would grant 4, 1,
	// 11, 14.
	bidders := [][2]int{{1, 0}, {2, 3}, {3, 2}, {0, 1}}
	for id, b := range bidders[:3] {
		r.Accept(0, testFlit(uint64(id+1), 0, 1, b[0], b[1], 0))
	}
	var order []int
	granted, joined := map[int]bool{}, false
	for now := int64(1); now < 40 && len(order) < len(bidders); now++ {
		r.Step(now)
		for _, b := range bidders {
			if fi := b[0]*4 + b[1]; !granted[fi] && r.In.Front(b[0], b[1]).OutVC >= 0 {
				granted[fi] = true
				order = append(order, fi)
			}
		}
		if len(order) == 1 && !joined {
			r.Accept(now, testFlit(4, 0, 1, 0, 1, 0))
			joined = true
		}
	}
	if want := []int{4, 11, 14, 1}; !slices.Equal(order, want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
}

// TestSepAllocFreshFlitWaits: a flit accepted in cycle now bids in
// neither stage until now+1 — a head for VA, a body arriving at an empty
// buffer whose packet already holds an output VC for SA.
func TestSepAllocFreshFlitWaits(t *testing.T) {
	r := newTestSepAlloc()
	r.Accept(0, testFlit(1, 0, 2, 3, 1, 2))
	fr := r.In.Front(3, 1)
	r.Step(0)
	if fr.OutVC != -1 || fr.Rot != 0 {
		t.Fatalf("head accepted in cycle 0 bid for VA in it: OutVC %d Rot %d", fr.OutVC, fr.Rot)
	}
	r.Step(1)
	if fr.OutVC < 0 {
		t.Fatal("head not granted an output VC in cycle 1")
	}
	r.Step(2)
	if r.In.Len(3, 1) != 0 {
		t.Fatal("head not switched in cycle 2")
	}
	r.Accept(5, testFlit(1, 1, 2, 3, 1, 2))
	r.Step(5)
	if r.In.Len(3, 1) != 1 {
		t.Fatal("body accepted in cycle 5 was switched in it")
	}
	r.Step(6)
	if r.In.Len(3, 1) != 0 || fr.OutVC != -1 {
		t.Fatalf("body not switched in cycle 6 (buffered %d, OutVC %d)", r.In.Len(3, 1), fr.OutVC)
	}
}
