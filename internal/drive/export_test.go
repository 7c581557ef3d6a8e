package drive

import (
	"testing"

	"highradix/internal/sim"
)

// What only the tests read, the external ones included: they run the
// front ends built on this package, which construct their banks out of
// a test's reach.

// Horizon is the bound on one run-ahead, in draws.
func Horizon() int { return horizon }

// WatchBanks collects every bank built until t ends.
func WatchBanks(t testing.TB) *[]*Bank {
	var banks []*Bank
	testHookNewBank = func(b *Bank) { banks = append(banks, b) }
	t.Cleanup(func() { testHookNewBank = nil })
	return &banks
}

// Owned returns the sources b generates for.
func (b *Bank) Owned() []int { return b.owned }

// Draws counts the draws source id has taken from its stream so far, by
// walking a fresh copy of the stream up to the source's state; -1 if
// limit draws do not reach it.
func (b *Bank) Draws(id, limit int) int {
	r := sim.NewRNG(b.c.Seed(id))
	for n := 0; n <= limit; n++ {
		if *r == b.rngs[id] {
			return n
		}
		r.Uint64()
	}
	return -1
}
