package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"highradix/internal/sim"
)

func TestUniformInRange(t *testing.T) {
	u := NewUniform(64)
	rng := sim.NewRNG(1)
	counts := make([]int, 64)
	for i := 0; i < 64000; i++ {
		d := u.Dest(i%64, rng)
		if d < 0 || d >= 64 {
			t.Fatalf("dest %d out of range", d)
		}
		counts[d]++
	}
	for d, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("output %d received %d of 64000 (want ~1000)", d, c)
		}
	}
}

func TestDiagonalTargets(t *testing.T) {
	d := NewDiagonal(16)
	rng := sim.NewRNG(2)
	for src := 0; src < 16; src++ {
		sawSelf, sawNext := false, false
		for i := 0; i < 200; i++ {
			dst := d.Dest(src, rng)
			switch dst {
			case src:
				sawSelf = true
			case (src + 1) % 16:
				sawNext = true
			default:
				t.Fatalf("diagonal src %d produced dst %d", src, dst)
			}
		}
		if !sawSelf || !sawNext {
			t.Fatalf("src %d: self=%v next=%v in 200 draws", src, sawSelf, sawNext)
		}
	}
}

func TestHotspotSplit(t *testing.T) {
	h := NewHotspot(64, 8)
	rng := sim.NewRNG(3)
	const draws = 100000
	hot := 0
	for i := 0; i < draws; i++ {
		if h.Dest(0, rng) < 8 {
			hot++
		}
	}
	// 50% direct + 50%*8/64 background = 56.25% to the hot outputs.
	want := 0.5 + 0.5*8.0/64.0
	got := float64(hot) / draws
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("hotspot fraction %v, want ~%v", got, want)
	}
}

func TestHotspotPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHotspot(8, 9) did not panic")
		}
	}()
	NewHotspot(8, 9)
}

func TestWorstCaseConcentration(t *testing.T) {
	w := NewWorstCaseHierarchical(64, 8)
	rng := sim.NewRNG(4)
	for src := 0; src < 64; src++ {
		group := src / 8
		for i := 0; i < 50; i++ {
			dst := w.Dest(src, rng)
			if dst/8 != group {
				t.Fatalf("src %d (group %d) produced dst %d (group %d)", src, group, dst, dst/8)
			}
		}
	}
}

func TestWorstCasePanicsOnBadSubsize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-dividing subswitch size did not panic")
		}
	}()
	NewWorstCaseHierarchical(64, 7)
}

// TestPermutationPatternsAreBijections verifies that every static
// permutation pattern maps the port set one-to-one.
func TestPermutationPatternsAreBijections(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, k := range []int{4, 16, 64, 256} {
		pats := []Pattern{NewBitComplement(k), NewBitReverse(k), NewShuffle(k)}
		if (bitsLen(k)-1)%2 == 0 {
			pats = append(pats, NewTranspose(k))
		}
		for _, p := range pats {
			seen := make([]bool, k)
			for src := 0; src < k; src++ {
				d := p.Dest(src, rng)
				if d < 0 || d >= k {
					t.Fatalf("%s(k=%d): dst %d out of range", p.Name(), k, d)
				}
				if seen[d] {
					t.Fatalf("%s(k=%d): dst %d produced twice", p.Name(), k, d)
				}
				seen[d] = true
			}
		}
	}
}

func bitsLen(k int) int {
	n := 0
	for 1<<n < k {
		n++
	}
	return n + 1
}

func TestTransposeInvolution(t *testing.T) {
	tr := NewTranspose(64)
	rng := sim.NewRNG(6)
	err := quick.Check(func(s uint8) bool {
		src := int(s) % 64
		return tr.Dest(tr.Dest(src, rng), rng) == src
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBitComplementInvolution(t *testing.T) {
	bc := NewBitComplement(64)
	rng := sim.NewRNG(7)
	for src := 0; src < 64; src++ {
		if bc.Dest(bc.Dest(src, rng), rng) != src {
			t.Fatalf("bit complement not an involution at %d", src)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"uniform", "diagonal", "hotspot", "worstcase", "bitcomp", "bitrev", "transpose", "shuffle"} {
		p, err := ByName(name, 64, 8, 8)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("nope", 64, 8, 8); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	// A pattern whose precondition the radix breaks is an error, not a
	// panic: hrsim reports it as a usage error.
	for _, c := range []struct {
		name    string
		k, p, h int
	}{
		{"hotspot", 4, 8, 8},   // more hotspots than ports
		{"worstcase", 4, 8, 8}, // subswitch size does not divide the radix
		{"bitcomp", 6, 2, 2},   // not a power of two
		{"bitrev", 6, 2, 2},
		{"shuffle", 6, 2, 2},
		{"transpose", 8, 8, 8}, // odd number of address bits
	} {
		if _, err := ByName(c.name, c.k, c.p, c.h); err == nil {
			t.Errorf("ByName(%q, k=%d, p=%d, h=%d) accepted", c.name, c.k, c.p, c.h)
		}
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShuffle(12) did not panic")
		}
	}()
	NewShuffle(12)
}
