package arb

// LocalGlobal is the paper's two-stage distributed output arbiter
// (Figure 6): n request lines are partitioned into groups of m
// physically co-located inputs; a local round-robin arbiter per group
// picks one candidate, and a global round-robin arbiter selects among
// the n/m local winners. Each stage arbitrates over a small number of
// inputs (typically 16 or less) so that it fits in a clock cycle.
//
// For very high radix the structure extends to more stages (Tree).
type LocalGlobal struct {
	n      int
	m      int
	locals []*RoundRobin
	global *RoundRobin

	globalsB *BitVec  // scratch: the group-presence lines of one arbitration
	grpMask  []uint64 // per-group request mask (group sizes <= 64)
}

// NewLocalGlobal returns a two-stage arbiter over n lines with local
// groups of size m. n need not be a multiple of m; the final group is
// smaller. m >= n degenerates to a single round-robin stage.
func NewLocalGlobal(n, m int) *LocalGlobal {
	if n <= 0 {
		panic("arb: arbiter size must be positive")
	}
	if m <= 0 {
		panic("arb: local group size must be positive")
	}
	if m > n {
		m = n
	}
	groups := (n + m - 1) / m
	lg := &LocalGlobal{
		n:        n,
		m:        m,
		locals:   make([]*RoundRobin, groups),
		global:   NewRoundRobin(groups),
		globalsB: NewBitVec(groups),
	}
	for g := range lg.locals {
		size := m
		if g == groups-1 && n%m != 0 {
			size = n % m
		}
		lg.locals[g] = NewRoundRobin(size)
	}
	if m <= 64 {
		lg.grpMask = make([]uint64, groups)
		for g := range lg.grpMask {
			lg.grpMask[g] = ^uint64(0) >> (64 - lg.locals[g].n)
		}
	}
	return lg
}

// Size returns the number of request lines.
func (a *LocalGlobal) Size() int { return a.n }

// ArbitrateBits grants one of the requesting lines using
// local-then-global round-robin selection, or -1 when no line requests:
// one GroupAny pass reduces the request vector to group-presence lines
// (a SWAR movemask per word for the common sub-word group widths), the
// global stage picks a group, and only that group's local pointer
// commits. Every path is alloc-free and O(active): single-word vectors
// stay entirely in registers, wider vectors reduce word-at-a-time, and a
// local group wider than one word is searched in place over its line
// range.
//
// Real hardware commits every local winner's pointer unconditionally;
// committing only the group that wins globally gives the same long-run
// fairness (both stages rotate) and avoids starving a member of a group
// that loses repeatedly. The difference is not observable in any of the
// paper's experiments; tests pin the chosen behavior.
func (a *LocalGlobal) ArbitrateBits(v *BitVec) int {
	if v.n != a.n {
		panic("arb: request vector size mismatch")
	}
	if a.n <= 64 {
		// The whole request vector is one word: group g's lines are bits
		// [g*m, g*m+size), so group presence and the winning group's
		// lines come straight from shifts and masks.
		w := v.words[0]
		if w == 0 {
			return -1
		}
		var globals uint64
		if a.m == 8 || a.m == 16 || a.m == 32 {
			// Lane-aligned groups (the paper's radix-64 routers are eight
			// byte-wide lanes) reduce with the SWAR movemask; lanes past
			// the last group hold no request bits, so they stay zero.
			globals = laneAny(w, a.m)
		} else {
			for g := range a.locals {
				if w>>(g*a.m)&a.grpMask[g] != 0 {
					globals |= 1 << g
				}
			}
		}
		gw := a.global.arbitrateWord(globals)
		base := gw * a.m
		return base + a.locals[gw].arbitrateWord(w>>base&a.grpMask[gw])
	}
	v.GroupAny(a.globalsB, a.m)
	if !a.globalsB.Any() {
		return -1
	}
	gw := a.global.ArbitrateBits(a.globalsB)
	// Commit the winning group's local pointer.
	base := gw * a.m
	if a.m <= 64 {
		return base + a.locals[gw].arbitrateWord(v.slice(base, a.locals[gw].n))
	}
	return base + a.locals[gw].arbitrateRange(v, base)
}
