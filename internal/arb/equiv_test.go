package arb_test

import (
	"testing"
	"testing/quick"

	"highradix/internal/arb"
	"highradix/internal/sim"
)

// Property tests asserting that every arbiter's bitset entry point is
// grant-for-grant identical to its []bool oracle (oracle_test.go). The
// two share rotation state within one instance, so each property drives
// a pair of identically constructed twins — one with request slices, one
// with request bitsets — through the same random request stream and
// requires identical grant sequences. This is the contract the routers
// rely on: the step loops run wholly on the bitset path, and
// cycle-accurate results must not move.

const quickRounds = 192

// reqStream fills req (and its bitset mirror) with a random vector,
// forcing at least occasional empty and full vectors.
func reqStream(rng *sim.RNG, round int, req []bool, v *arb.BitVec) {
	p := 0.35
	switch round % 16 {
	case 7:
		p = 0 // empty vector: both paths must return -1
	case 13:
		p = 1 // full vector: pure rotation
	}
	for i := range req {
		req[i] = rng.Bernoulli(p)
	}
	v.SetBools(req)
}

func quickCfg(t *testing.T) *quick.Config {
	t.Helper()
	return &quick.Config{MaxCount: 64}
}

func TestQuickRoundRobinBitsMatchesBools(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw)%128 // cover both the word path (n<=64) and the vector path
		bools := arb.NewRoundRobin(n)
		bits := arb.NewRoundRobin(n)
		rng := sim.NewRNG(seed ^ 0x6c62272e07bb0142)
		req := make([]bool, n)
		v := arb.NewBitVec(n)
		for round := 0; round < quickRounds; round++ {
			reqStream(rng, round, req, v)
			if got, want := bits.ArbitrateBits(v), bools.Arbitrate(req); got != want {
				t.Logf("n=%d round=%d: ArbitrateBits=%d, Arbitrate=%d", n, round, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRotorBankMatchesRoundRobin pins the banked entry point every
// router's per-input VC arbiters and the buffered router's crosspoint
// arbiters use: every member of a RotorBank, handed its requests as one
// word, must grant exactly like its own independent RoundRobin handed
// the same requests as a BitVec.
func TestQuickRotorBankMatchesRoundRobin(t *testing.T) {
	prop := func(seed uint64, nRaw, countRaw uint8) bool {
		n := 1 + int(nRaw)%64
		count := 1 + int(countRaw)%7
		bank := arb.NewRotorBank(count, n)
		singles := make([]*arb.RoundRobin, count)
		for i := range singles {
			singles[i] = arb.NewRoundRobin(n)
		}
		rng := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
		req := make([]bool, n)
		v := arb.NewBitVec(n)
		for round := 0; round < quickRounds; round++ {
			i := int(rng.Uint64() % uint64(count))
			reqStream(rng, round, req, v)
			var w uint64
			for j, r := range req {
				if r {
					w |= 1 << uint(j)
				}
			}
			want := singles[i].ArbitrateBits(v)
			if got := bank.Arbitrate(i, w); got != want {
				t.Logf("n=%d count=%d round=%d member=%d: bank=%d, single=%d", n, count, round, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDualBitsMatchesBools(t *testing.T) {
	prop := func(seed uint64, nRaw, mRaw uint8) bool {
		n := 1 + int(nRaw)%128
		m := 2 + int(mRaw)%15
		mk := func(n int) arb.Arbiter { return arb.NewOutputArbiter(n, m) }
		bools := arb.NewDual(n, mk)
		bits := arb.NewDual(n, mk)
		rng := sim.NewRNG(seed ^ 0x85ebca77c2b2ae63)
		nonspec := make([]bool, n)
		spec := make([]bool, n)
		nv := arb.NewBitVec(n)
		sv := arb.NewBitVec(n)
		for round := 0; round < quickRounds; round++ {
			reqStream(rng, round, nonspec, nv)
			reqStream(rng, round+1, spec, sv)
			wantW, wantS := bools.Arbitrate(nonspec, spec)
			gotW, gotS := bits.ArbitrateBits(nv, sv)
			if gotW != wantW || gotS != wantS {
				t.Logf("n=%d m=%d round=%d: ArbitrateBits=(%d,%t), Arbitrate=(%d,%t)",
					n, m, round, gotW, gotS, wantW, wantS)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBitVecMatchesReference drives BitVec's accessors against a
// []bool reference model.
func TestQuickBitVecMatchesReference(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw)%200
		rng := sim.NewRNG(seed ^ 0x94d049bb133111eb)
		ref := make([]bool, n)
		v := arb.NewBitVec(n)
		for round := 0; round < 64; round++ {
			i := int(rng.Uint64() % uint64(n))
			switch rng.Uint64() % 3 {
			case 0:
				ref[i] = true
				v.Set(i)
			case 1:
				ref[i] = false
				v.Clear(i)
			case 2:
				if v.Get(i) != ref[i] {
					t.Logf("n=%d: Get(%d)=%t, want %t", n, i, v.Get(i), ref[i])
					return false
				}
			}
			count, first := 0, -1
			for j, r := range ref {
				if r {
					count++
					if first < 0 {
						first = j
					}
				}
			}
			if v.Count() != count || v.Any() != (count > 0) || v.Next(0) != first {
				t.Logf("n=%d: Count/Any/Next = %d/%t/%d, want %d/%t/%d",
					n, v.Count(), v.Any(), v.Next(0), count, count > 0, first)
				return false
			}
			start := int(rng.Uint64() % uint64(n))
			wantFF := -1
			for off := 0; off < n; off++ {
				if ref[(start+off)%n] {
					wantFF = (start + off) % n
					break
				}
			}
			if got := v.FirstFrom(start); got != wantFF {
				t.Logf("n=%d: FirstFrom(%d)=%d, want %d (ref %v)", n, start, got, wantFF, ref)
				return false
			}
		}
		// SetBools/FillBools round-trip.
		v.SetBools(ref)
		back := make([]bool, n)
		v.FillBools(back)
		for j := range ref {
			if back[j] != ref[j] {
				t.Logf("n=%d: FillBools[%d]=%t, want %t", n, j, back[j], ref[j])
				return false
			}
		}
		// NextIn against the reference.
		from := int(rng.Uint64() % uint64(n))
		limit := from + int(rng.Uint64()%uint64(n-from+1))
		wantIn := -1
		for j := from; j < limit; j++ {
			if ref[j] {
				wantIn = j
				break
			}
		}
		if got := v.NextIn(from, limit); got != wantIn {
			t.Logf("n=%d: NextIn(%d,%d)=%d, want %d", n, from, limit, got, wantIn)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGroupAny drives the generalized group-any reduction — the
// SWAR movemask lanes (m = 8, 16, 32), the per-word loop (m = 2, 4),
// the word-multiple branches (m = 64, 128, ...) and the set-bit
// fallback — against a direct reference over every group width.
func TestQuickGroupAny(t *testing.T) {
	prop := func(seed uint64, nRaw uint16, mRaw uint8) bool {
		n := 1 + int(nRaw)%400
		rng := sim.NewRNG(seed ^ 0xbf58476d1ce4e5b9)
		// Sweep a width mix that hits every branch: the random width plus
		// the lane and word-multiple specializations.
		widths := []int{1 + int(mRaw)%200, 2, 4, 8, 16, 32, 64, 128, 3, n}
		ref := make([]bool, n)
		v := arb.NewBitVec(n)
		for round := 0; round < 32; round++ {
			reqStream(rng, round, ref, v)
			for _, m := range widths {
				groups := (n + m - 1) / m
				dst := arb.NewBitVec(groups)
				// Pre-soil dst: GroupAny must overwrite, not accumulate.
				for g := 0; g < groups; g += 2 {
					dst.Set(g)
				}
				v.GroupAny(dst, m)
				for g := 0; g < groups; g++ {
					want := false
					for i := g * m; i < (g+1)*m && i < n; i++ {
						want = want || ref[i]
					}
					if dst.Get(g) != want {
						t.Logf("n=%d m=%d: group %d = %t, want %t", n, m, g, dst.Get(g), want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg(t)); err != nil {
		t.Fatal(err)
	}
}
