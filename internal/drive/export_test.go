package drive

import (
	"sync"
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

// Rendezvous has every drive.Run wait twice until n runs have reached
// the same point, until t ends: once it has counted its own goroutine
// against the budget, so none decides before all are counted, and once
// it has decided on a producer, so none ends, and returns its claim,
// before all have decided.
func Rendezvous(t testing.TB, n int) {
	var claimed, decided sync.WaitGroup
	claimed.Add(n)
	decided.Add(n)
	testHookClaimed = func() { claimed.Done(); claimed.Wait() }
	testHookDecided = func() { decided.Done(); decided.Wait() }
	t.Cleanup(func() { testHookClaimed, testHookDecided = nil, nil })
}
