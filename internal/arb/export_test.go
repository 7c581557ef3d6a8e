package arb

import "math/bits"

// Structure accessors only the tests read: the fairness bounds of the
// fuzz targets multiply them out, and the shape tests pin them.

// Groups returns the number of local groups.
func (a *LocalGlobal) Groups() int { return len(a.locals) }

// Stages returns the number of arbitration stages (2 for a local-global
// arbiter, 1 when the group covers all inputs).
func (a *LocalGlobal) Stages() int {
	if len(a.locals) == 1 {
		return 1
	}
	return 2
}

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
