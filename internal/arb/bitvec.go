package arb

import "math/bits"

// BitVec is a fixed-width request vector over n lines packed
// little-endian into uint64 words: line i lives at bit i%64 of word
// i/64. At the paper's radices an entire request vector fits in one or
// a few machine words, so scanning for the next requester — the inner
// operation of every round-robin arbiter — collapses from an O(n) slice
// walk into a handful of mask-and-count-trailing-zeros instructions.
type BitVec struct {
	n     int
	words []uint64
}

// NewBitVec returns an empty bit vector over n lines.
func NewBitVec(n int) *BitVec {
	v := MakeBitVec(n)
	return &v
}

// MakeBitVec returns an empty bit vector over n lines as a value, for
// embedding directly in larger per-port structs so the hot step loops
// reach the words with one less pointer dereference.
func MakeBitVec(n int) BitVec {
	if n <= 0 {
		panic("arb: bit vector size must be positive")
	}
	return BitVec{n: n, words: make([]uint64, (n+63)/64)}
}

// MakeBitVecs returns rows empty bit vectors over n lines each, carved
// from one word slab: the rows of a crosspoint or credit-bus grid stay
// contiguous and cost one allocation instead of one per row.
func MakeBitVecs(rows, n int) []BitVec {
	if n <= 0 {
		panic("arb: bit vector size must be positive")
	}
	w := (n + 63) / 64
	slab := make([]uint64, rows*w)
	vs := make([]BitVec, rows)
	for r := range vs {
		vs[r] = BitVec{n: n, words: slab[r*w : (r+1)*w : (r+1)*w]}
	}
	return vs
}

// Set raises line i.
func (v *BitVec) Set(i int) { v.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear lowers line i.
func (v *BitVec) Clear(i int) { v.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether line i is raised.
func (v *BitVec) Get(i int) bool { return v.words[i>>6]>>(uint(i)&63)&1 != 0 }

// Any reports whether any line is raised.
func (v *BitVec) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// sole classifies the vector for the arbiters' one-hot fast path: the
// only raised line, -1 when no line is raised, -2 when several are.
func (v *BitVec) sole() int {
	line := -1
	for wi, w := range v.words {
		if w == 0 {
			continue
		}
		if line >= 0 || w&(w-1) != 0 {
			return -2
		}
		line = wi<<6 + bits.TrailingZeros64(w)
	}
	return line
}

// Words returns the packed words, read-only, for loops that visit the
// raised lines a word at a time: line wi<<6 | bit b of word wi.
func (v *BitVec) Words() []uint64 { return v.words }

// Reset lowers every line.
func (v *BitVec) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// CopyOr sets v to the union a|b. All three vectors must have the same
// length.
func (v *BitVec) CopyOr(a, b *BitVec) {
	if a.n != v.n || b.n != v.n {
		panic("arb: bit vector size mismatch")
	}
	for i := range v.words {
		v.words[i] = a.words[i] | b.words[i]
	}
}

// CopyAndNot sets v to the difference a &^ b. All three vectors must
// have the same length.
func (v *BitVec) CopyAndNot(a, b *BitVec) {
	if a.n != v.n || b.n != v.n {
		panic("arb: bit vector size mismatch")
	}
	for i := range v.words {
		v.words[i] = a.words[i] &^ b.words[i]
	}
}

// Next returns the lowest raised line at or after i, or -1 when none
// remains. Iterating `for i := v.Next(0); i >= 0; i = v.Next(i + 1)`
// visits the raised lines in ascending order, skipping idle spans a
// word at a time.
func (v *BitVec) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	w := i >> 6
	word := v.words[w] &^ (1<<(uint(i)&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w == len(v.words) {
			return -1
		}
		word = v.words[w]
	}
}

// FirstFrom returns the first raised line at or cyclically after start
// — the rotate-aware find-first-set that implements a round-robin
// priority pointer: lines start..n-1 are searched first, then 0..start-1.
// It returns -1 when the vector is empty.
func (v *BitVec) FirstFrom(start int) int {
	if idx := v.Next(start); idx >= 0 {
		return idx
	}
	// No line at or above start: the cyclically-first requester is
	// simply the lowest raised line.
	return v.Next(0)
}

// NextIn returns the lowest raised line in [i, limit), or -1 when that
// range is idle — the bounded Next behind range-restricted round-robin
// search over a group embedded in a larger vector.
func (v *BitVec) NextIn(i, limit int) int {
	if limit > v.n {
		limit = v.n
	}
	if idx := v.Next(i); idx >= 0 && idx < limit {
		return idx
	}
	return -1
}

// GroupAny reduces v by contiguous groups of m lines: bit g of dst is
// raised iff any of v's lines [g*m, (g+1)*m) is raised (the final group
// may be smaller). dst must span exactly ceil(Len/m) lines; its previous
// contents are overwritten. This is the upward "any requester in this
// group?" pass of hierarchical arbitration, generalized from the old
// hard-coded n=64/m=8 movemask: group widths dividing a word reduce
// each word in registers (SWAR lanes for 8, 16 and 32, groupAnyWord for
// 2 and 4), word-multiple widths reduce by word-nonzero tests, and
// everything else falls back to visiting only the raised lines —
// O(active) in every case.
func (v *BitVec) GroupAny(dst *BitVec, m int) {
	if m <= 0 {
		panic("arb: group width must be positive")
	}
	if dst.n != (v.n+m-1)/m {
		panic("arb: group vector size mismatch")
	}
	switch {
	case m < 64 && 64%m == 0:
		lanes := 64 / m
		for i := range dst.words {
			dst.words[i] = 0
		}
		for wi, w := range v.words {
			if w == 0 {
				continue
			}
			var g uint64
			if m == 8 || m == 16 || m == 32 {
				g = laneAny(w, m)
			} else {
				g = groupAnyWord(w, m)
			}
			base := wi * lanes
			dst.words[base>>6] |= g << (uint(base) & 63)
		}
	case m == 64:
		for i := range dst.words {
			dst.words[i] = 0
		}
		for wi, w := range v.words {
			if w != 0 {
				dst.words[wi>>6] |= 1 << (uint(wi) & 63)
			}
		}
	case m%64 == 0:
		wpg := m >> 6
		for i := range dst.words {
			dst.words[i] = 0
		}
		for wi, w := range v.words {
			if w != 0 {
				g := wi / wpg
				dst.words[g>>6] |= 1 << (uint(g) & 63)
			}
		}
	default:
		dst.Reset()
		for i := v.Next(0); i >= 0; i = v.Next(i + 1) {
			dst.Set(i / m)
		}
	}
}

// laneAny reduces each m-bit lane of w to one bit: bit L of the result
// is set iff lane L contains any set bit. The OR folds a lane's high
// bit in; the masked add carries into the high bit whenever any low bit
// is set; the multiply (or shifts, for two lanes) gathers the per-lane
// high bits into the low bits of the result.
func laneAny(w uint64, m int) uint64 {
	switch m {
	case 8:
		t := (w | ((w & 0x7f7f7f7f7f7f7f7f) + 0x7f7f7f7f7f7f7f7f)) & 0x8080808080808080
		return t * 0x0002040810204081 >> 56
	case 16:
		t := (w | ((w & 0x7fff7fff7fff7fff) + 0x7fff7fff7fff7fff)) & 0x8000800080008000
		return t * 0x0000200040008001 >> 60
	case 32:
		t := (w | ((w & 0x7fffffff7fffffff) + 0x7fffffff7fffffff)) & 0x8000000080000000
		return t>>31&1 | t>>62&2
	}
	panic("arb: unsupported lane width")
}

// groupAnyWord is GroupAny within one word, for group widths m < 64:
// bit g of the result is raised iff any of w's bits [g*m, (g+1)*m) is.
// For the lane widths 8, 16 and 32 laneAny gives the same word without
// a loop; callers test for those first, so the movemask inlines.
func groupAnyWord(w uint64, m int) uint64 {
	mask := uint64(1)<<uint(m) - 1
	var g uint64
	for i := 0; w != 0; i++ {
		if w&mask != 0 {
			g |= 1 << uint(i)
		}
		w >>= uint(m)
	}
	return g
}

// slice extracts the size bits starting at line base as one word
// (size <= 64). Groups of a hierarchical arbiter are contiguous line
// ranges, so a whole local stage's request vector is one such word.
func (v *BitVec) slice(base, size int) uint64 {
	w, off := base>>6, uint(base)&63
	word := v.words[w] >> off
	if off != 0 && w+1 < len(v.words) {
		word |= v.words[w+1] << (64 - off)
	}
	if size < 64 {
		word &= 1<<uint(size) - 1
	}
	return word
}

// RotFirst returns the lowest set bit of grp at or cyclically after
// priority pointer p (0 <= p <= 63): bits >= p win first; if none is
// set there, wrapping means the overall lowest set bit wins.
func RotFirst(grp uint64, p int) int {
	if hi := grp &^ (1<<uint(p) - 1); hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	if grp != 0 {
		return bits.TrailingZeros64(grp)
	}
	return -1
}
