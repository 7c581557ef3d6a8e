package router

import "highradix/internal/flit"

// Router is the external contract shared by every architecture. A
// router is advanced one cycle at a time; the caller injects flits into
// input virtual channels subject to CanAccept (the upstream side of
// credit flow control) and collects ejected flits after each Step.
//
// The shared datapath behind this contract — input-buffer bank,
// ejection pipe, credit ledgers, VC owner tables — lives in the
// router/core package; each architecture file here holds only its
// allocation logic.
type Router interface {
	// Config returns the (defaulted) configuration the router was built
	// with.
	Config() Config
	// CanAccept reports whether input buffer (input, vc) has a free slot.
	CanAccept(input, vc int) bool
	// Accept places f into input buffer (input, f.VC). The caller must
	// have checked CanAccept; violating flow control panics, because it
	// indicates a credit-accounting bug, never a recoverable condition.
	Accept(now int64, f *flit.Flit)
	// Step advances the router one cycle.
	Step(now int64)
	// Ejected returns the flits that left output ports during the last
	// Step. The slice is reused; callers must not retain it across
	// steps.
	//
	// Recycling contract: once a flit has appeared in an Ejected()
	// slice, the router holds no reference to it — it has been popped
	// from every buffer, arbiter and traversal pipeline on its way out.
	// The caller (and only the caller) may therefore recycle it, e.g.
	// via flit.FreeList, after reading the fields it needs and before
	// the next Step. A flit must never be recycled while still in
	// flight (injected but not yet ejected): every architecture mutates
	// flits in place, so recycling a live flit aliases two packets onto
	// one struct. Observers (Config.Observer) receive flit pointers in
	// their events and must not retain them past the Step that emitted
	// the event, for the same reason.
	Ejected() []*flit.Flit
	// InFlight reports the exact number of flits inside the router
	// (input buffers, intermediate buffers and traversal pipelines), each
	// counted once however many copies of it the datapath holds. Draining
	// testbenches run until this reaches zero, and the invariant checker
	// holds it to the event stream every cycle.
	InFlight() int
	// Storage returns the flit capacity of the buffers the router built,
	// the quantity the area model prices. core.Base counts it as the
	// constructor makes each FIFO bank, so it is exact by construction.
	Storage() int
	// NextWake returns a lower bound, at least now+1, on the earliest
	// future cycle at which Step is not provably a no-op assuming no
	// further Accepts, or sim.NoWake when the router is quiescent: no
	// flits anywhere, no requests, ACKs or credits in flight. A driver
	// skips the Step call of a quiescent router cycle-exactly (a quiescent
	// step invokes no arbiter, so no rotation state would have advanced).
	// The bound is now+1 whenever a buffer holds a flit (buffered flits
	// drive arbitration every cycle); only purely timed residual state
	// (ejection slots, traversal and credit wires) yields a jump. See the
	// quiescence contract in router/core. NextWake must account for every
	// piece of per-cycle state the architecture owns: drivers skip Steps
	// and fast-forward to NextWake on its word (drive.Device), and the
	// fast-forward twin suites, which run every registered architecture
	// against its dense self, hold a new one to it. O(1).
	NextWake(now int64) int64
}
