package core

// Quiescence contract
//
// A router (or a component of one) is *quiescent* when its Step is
// provably a no-op at every future cycle absent new input: no flits in
// any buffer or traversal pipeline, no requests, grants or credits in
// flight. NextWake(now) is the one answer a driver asks for: a lower
// bound, at least now+1, on the earliest future cycle at which Step is
// not provably a no-op, or sim.NoWake exactly when the router is
// quiescent. sim.NoWake licenses a driver to skip the Step call outright
// — cycle-exactly, because a quiescent step touches no arbitration state
// (every arbiter entry point runs behind an occupancy-gated active set,
// and rotation pointers only move on grants).
//
// For *timed* residual state the bound is exact: calendars' NextAt names
// their next due cycle. It is deliberately conservative (now+1) whenever
// any buffer holds a flit, because buffered flits invoke arbiters whose
// rotation state advances even on fruitless rounds — skipping such a
// cycle would not be state-preserving. A driver that has stopped
// offering input may therefore jump time from now straight to
// NextWake(now) and replay nothing in between.
//
// All of this is O(1) in the radix: it reads the running counters
// (InputBank.Buffered, EjectPipe.Len, CreditBus.Pending) that the
// active-set stepping of the routers already maintains.

// NextWake returns the earliest future cycle at which the base datapath
// can act: now+1 while any input VC holds a flit (buffered flits drive
// allocation every cycle), otherwise the ejection pipe's next due cycle,
// or sim.NoWake when both are empty. For architectures whose only extra
// state is timestamps (serializers) and request wires that imply input
// occupancy, this is the whole router-level answer.
func (b *Base) NextWake(now int64) int64 {
	if b.In.Buffered() > 0 {
		return now + 1
	}
	return b.Out.NextWake()
}
