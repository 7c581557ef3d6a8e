package core

import "highradix/internal/arb"

// ActiveSet pairs a per-index occupancy counter with a bitset so that
// step loops visit only indices holding work: inputs with buffered
// flits, outputs with pending requests, crosspoints with occupancy.
// Idle indices cost zero loop iterations instead of a scan-and-skip —
// at radix 64 and low load that removes almost the entire per-cycle
// walk. Counts change only when flits (or requests) enter and leave, so
// maintenance is O(1) per event rather than O(k) per cycle.
type ActiveSet struct {
	count []int32
	bits  arb.BitVec // by value: one less dereference per operation
}

// MakeActiveSet returns an ActiveSet over n indices by value, for
// embedding.
func MakeActiveSet(n int) ActiveSet { return MakeActiveSets(1, n)[0] }

// MakeActiveSets returns rows sets over n indices each, their counters
// and bit rows carved from two shared slabs so a grid's sets (one per
// subswitch, one per output column) sit contiguously.
func MakeActiveSets(rows, n int) []ActiveSet {
	counts := make([]int32, rows*n)
	bits := arb.MakeBitVecs(rows, n)
	sets := make([]ActiveSet, rows)
	for r := range sets {
		sets[r] = ActiveSet{count: counts[r*n : (r+1)*n : (r+1)*n], bits: bits[r]}
	}
	return sets
}

// Inc records one more unit of work at index i.
func (s *ActiveSet) Inc(i int) {
	if s.count[i] == 0 {
		s.bits.Set(i)
	}
	s.count[i]++
}

// Dec records one unit of work leaving index i. Underflow is a
// flow-control violation: it means a step loop double-counted a flit.
func (s *ActiveSet) Dec(i int) {
	s.count[i]--
	if s.count[i] == 0 {
		s.bits.Clear(i)
	} else if s.count[i] < 0 {
		Violatef("active-set underflow at index %d", i)
	}
}

// Count returns the work units recorded at index i.
func (s *ActiveSet) Count(i int) int { return int(s.count[i]) }

// Next returns the lowest active index at or after i, or -1. Iterating
// `for i := s.Next(0); i >= 0; i = s.Next(i + 1)` visits active indices
// in the same ascending order a dense loop would.
func (s *ActiveSet) Next(i int) int { return s.bits.Next(i) }
