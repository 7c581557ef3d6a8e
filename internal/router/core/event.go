package core

import "highradix/internal/flit"

// EventKind classifies observable microarchitectural events.
type EventKind int

// Event kinds, in rough pipeline order.
const (
	// EvAccept: a flit entered an input buffer.
	EvAccept EventKind = iota
	// EvGrant: a flit won switch allocation and started moving toward
	// (or onto) an output; for multi-stage architectures one flit emits
	// a grant per stage with Note identifying the stage.
	EvGrant
	// EvNack: a speculative request or retained flit was rejected and
	// must re-bid (baseline VC-allocation failure, shared-crosspoint
	// NACK).
	EvNack
	// EvEject: a flit left an output port.
	EvEject
	// EvCredit: a credit-counted buffer pool changed occupancy. Delta is
	// -1 when the upstream side spends a credit (a flit was committed
	// toward the pool) and +1 when the credit returns (the slot freed).
	// Note names the pool kind ("xpoint", "xp-shared", "subin",
	// "subout") and Depth carries its total slot count, so an observer
	// can audit conservation without knowing the architecture.
	EvCredit
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvAccept:
		return "accept"
	case EvGrant:
		return "grant"
	case EvNack:
		return "nack"
	case EvEject:
		return "eject"
	case EvCredit:
		return "credit"
	default:
		return "event"
	}
}

// Event is one observable occurrence inside a router. Flit may be nil
// for events that concern a request rather than a moving flit.
type Event struct {
	Cycle  int64
	Kind   EventKind
	Flit   *flit.Flit
	Input  int
	Output int
	VC     int
	// Note identifies the pipeline location for multi-stage events
	// ("input", "xpoint", "subswitch", "column", ...).
	Note string
	// Delta and Depth are set on EvCredit only: the occupancy change
	// (-1 spend, +1 return) and the total depth of the credited pool.
	Delta int
	Depth int
}

// Observer receives events from a router whose Config.Observer is set.
// Observation is strictly passive; observers must not mutate flits.
// Simulation hot paths check for a nil observer, so tracing costs
// nothing when disabled.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// Obs is the nil-guarded emission hook every core component carries. A
// zero Obs (nil observer) emits nothing. Its helpers take an event's
// fields as scalars and test for the observer before anything else, so
// an unobserved run pays one comparison per site and never builds an
// Event.
type Obs struct {
	O Observer
}

// Emit delivers a kind event about f (nil for an event about a request)
// at (input, output, vc), labelled note, if an observer is attached.
func (s Obs) Emit(now int64, kind EventKind, f *flit.Flit, input, output, vc int, note string) {
	if s.O != nil {
		s.observe(now, kind, f, input, output, vc, note, 0, 0)
	}
}

// Credit delivers an EvCredit event, delta credits of a pool of depth
// slots labelled note at (input, output, vc), if an observer is attached.
func (s Obs) Credit(now int64, input, output, vc int, note string, delta, depth int) {
	if s.O != nil {
		s.observe(now, EvCredit, nil, input, output, vc, note, delta, depth)
	}
}

// observe is the helpers' delivery, out of line so that they stay within
// the inliner's budget and a site without an observer keeps only the
// nil test.
//
//go:noinline
func (s Obs) observe(now int64, kind EventKind, f *flit.Flit, input, output, vc int, note string, delta, depth int) {
	s.O.Observe(Event{Cycle: now, Kind: kind, Flit: f, Input: input, Output: output, VC: vc,
		Note: note, Delta: delta, Depth: depth})
}
