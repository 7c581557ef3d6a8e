package drive

import (
	"sync/atomic"
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
func (b *Bank) Owned() []int { return b.gen.owned }

// Draws counts the draws source id has taken from its stream so far, by
// walking a fresh copy of the stream up to the source's state; -1 if
// limit draws do not reach it.
func (b *Bank) Draws(id, limit int) int {
	r := sim.NewRNG(b.c.Seed(id))
	for n := 0; n <= limit; n++ {
		if *r == b.gen.rngs[id] {
			return n
		}
		r.Uint64()
	}
	return -1
}

// ForceProducers makes drive.Run give every bank it drives a producer
// goroutine when on, and none when off, whatever the budget says, until
// t ends.
func ForceProducers(t testing.TB, on bool) {
	testProducers = -1
	if on {
		testProducers = 1
	}
	t.Cleanup(func() { testProducers = 0 })
}

// WatchProducers counts the producer goroutines started until t ends.
func WatchProducers(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	testHookProducer = func(*Bank) { n.Add(1) }
	t.Cleanup(func() { testHookProducer = nil })
	return &n
}

// AfterClaim has every drive.Run call f once it has counted its own
// goroutine against the budget and before it decides on a producer,
// until t ends.
func AfterClaim(t testing.TB, f func()) {
	testHookClaimed = f
	t.Cleanup(func() { testHookClaimed = nil })
}
