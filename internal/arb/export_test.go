package arb

import "math/bits"

// Structure accessors only the tests read: the fairness bound of
// FuzzTree multiplies the stage count out, and the shape tests pin it.

// Stages returns the number of arbitration stages.
func (t *Tree) Stages() int { return len(t.levels) }

// Len returns the number of lines.
func (v *BitVec) Len() int { return v.n }

// Count returns the number of raised lines.
func (v *BitVec) Count() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}
