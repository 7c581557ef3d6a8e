package drive

import (
	"runtime"
	"sync/atomic"
)

// spins is how many times a waiting goroutine checks its gate, yielding
// its processor in between (about 0.1 ms on an idle one), before it
// parks: long enough to cover the usual gap between two goroutines
// handing each other work — a parked waiter's wake-up costs tens of
// microseconds — and short enough that a run with fewer free CPUs than
// goroutines loses a wake-up per handoff, not a core.
const spins = 1024

// Gate hands an increasing count from one goroutine to another: the
// poster raises it, the waiter blocks until it reaches a value, first
// spinning and then parked. Both handoffs between goroutines in the
// simulator use it: a shard worker's epochs (internal/network) and
// a bank's arrivals drawn on a spare core (ahead.go).
type Gate struct {
	n      atomic.Int64
	parked atomic.Bool
	wake   chan struct{} // one token per park the poster interrupts
	spins  int
}

// Init readies a gate whose waiter checks it spins times before it
// parks.
func (g *Gate) Init() { g.wake, g.spins = make(chan struct{}, 1), spins }

// Count returns the count last posted.
func (g *Gate) Count() int64 { return g.n.Load() }

// Post sets the count to n and wakes the waiter if it parked.
func (g *Gate) Post(n int64) {
	g.n.Store(n)
	if g.parked.Load() && g.parked.CompareAndSwap(true, false) {
		g.wake <- struct{}{}
	}
}

// Wait returns once the count reaches n. Whichever side clears parked
// owns the wake-up: the poster sends a token, or the waiter, having
// seen the count after all, takes none. A token does not prove the
// count reached n — a poster of an earlier count, delayed between
// seeing parked set and clearing it, can claim this park — so the
// waiter checks again after every one.
func (g *Gate) Wait(n int64) {
	for range g.spins {
		if g.n.Load() >= n {
			return
		}
		runtime.Gosched()
	}
	for {
		g.parked.Store(true)
		if g.n.Load() >= n {
			if !g.parked.CompareAndSwap(true, false) {
				<-g.wake
			}
			return
		}
		<-g.wake
	}
}

// threads is the process's CPU budget in use: the goroutines simulating
// at once. Every drive.Run counts its own, a sharded network run each
// worker beyond the coordinator, and a bank's producer itself
// (ahead.go).
var threads atomic.Int64

// Claim counts n more simulating goroutines against the budget until the
// returned release is called. It always succeeds: these goroutines run
// whether or not a CPU is free, and what they claim only keeps
// optional ones — producers, a network run's spare workers — off the
// CPUs they need.
func Claim(n int) (release func()) {
	threads.Add(int64(n))
	return func() { threads.Add(-int64(n)) }
}

// ClaimSpare claims, in one step, as many as n more goroutines as the
// budget then still fits under GOMAXPROCS, and returns how many it
// claimed and their release. A caller counts itself (drive.Run does)
// before it asks, so what it gets is what the runs already counted
// leave over.
func ClaimSpare(n int) (got int, release func()) {
	k := spare(n)
	return k, func() { threads.Add(-int64(k)) }
}

// spare claims up to n more goroutines, as many as then still fit
// GOMAXPROCS, and returns how many it claimed.
func spare(n int) int {
	procs := int64(runtime.GOMAXPROCS(0))
	for {
		t := threads.Load()
		k := min(int64(n), procs-t)
		if k <= 0 {
			return 0
		}
		if threads.CompareAndSwap(t, t+k) {
			return int(k)
		}
	}
}

// fits reports whether the goroutines claimed fit GOMAXPROCS.
func fits() bool { return threads.Load() <= int64(runtime.GOMAXPROCS(0)) }
