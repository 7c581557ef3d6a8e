// Package check is a cycle-level invariant checker for the router
// architectures and for whole networks. It consumes the router.Observer
// event stream plus the device's own occupancy counter and validates,
// every cycle, the properties any correct implementation must hold:
//
//   - Flit conservation: every flit accepted is eventually ejected,
//     exactly once, with no duplication, loss, or free-list aliasing
//     (a *flit.Flit recycled while still logically in flight).
//   - Credit conservation: every credit-counted buffer pool
//     (crosspoint buffers, subswitch input/output buffers) never
//     exceeds its depth, never returns a credit it does not owe, and
//     owes nothing once the router drains.
//   - In-order delivery: within a packet, flits are accepted and
//     ejected in seq order (head, bodies, tail) — the wormhole
//     contract.
//   - Single-owner VCs: at most one packet occupies an output virtual
//     channel at a time, and only its owner's flits leave on it.
//   - Grant legality: no grant for a flit that is not buffered in the
//     router, and no output serializer granted (or ejecting) more
//     often than once per STCycles.
//   - Progress: if flits are in flight, some flit must eject within
//     the watchdog window of 10000 cycles; otherwise the checker
//     reports a bounded deadlock/livelock certificate naming the
//     oldest stuck flit.
//
// Arm it on a router with Wrap (drop-in router.Router) or feed events
// to a Checker directly; it takes no options. A network is checked by
// the same Checker with its terminals as the ports (NewNetAuditor):
// Injected and Delivered are its accept and eject events, so every
// rule above holds at the terminals except grant legality and credit
// conservation, which need events only a router emits. The drivers
// close a checked run themselves: testbench.Run and network.Run call
// Final on every run that drained (drive.Tally.Drained), saturated or
// not, and on no other. The checker is strictly passive and
// allocation-free on the router's hot path when not attached: routers
// emit events through a nil-guarded observer hook.
package check

import (
	"fmt"
	"sort"

	"highradix/internal/flit"
	"highradix/internal/router"
)

// Violation describes one invariant breach: the cycle it was detected,
// a stable machine-readable rule name, and a human-readable detail.
type Violation struct {
	Cycle  int64
	Rule   string
	Detail string
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("cycle %d: %s: %s", v.Cycle, v.Rule, v.Detail)
}

func vio(cycle int64, rule, format string, args ...any) *Violation {
	return &Violation{Cycle: cycle, Rule: rule, Detail: fmt.Sprintf(format, args...)}
}

// watchdogCycles is how long the checker tolerates in-flight flits
// without a single ejection before declaring a progress violation:
// generous for every architecture at any load below saturation.
const watchdogCycles = 10000

// poolKey identifies one credit-counted buffer pool. Routers name the
// pool kind in Event.Note and address it with the event's port fields,
// so the checker needs no architecture knowledge.
type poolKey struct {
	note          string
	input, output int
	vc            int
}

func (k poolKey) String() string {
	return fmt.Sprintf("%s[in=%d out=%d vc=%d]", k.note, k.input, k.output, k.vc)
}

type pool struct {
	outstanding int // credits spent and not yet returned
	depth       int
}

// Checker validates one device's event stream: a router's, or a
// network's at its terminals. It implements router.Observer (feed it
// via Config.Observer or use Wrap) and network.Hooks.
type Checker struct {
	ports int
	vcs   int
	ser   int64 // cycles an output serializer needs per flit

	err *Violation

	// The device-independent half of the state: the live flit set
	// (accepted but not yet ejected), pointer identity, and per-packet
	// sequencing on both sides (flow.go). The rules below layer ports,
	// VCs, serializers, grants and credits on top of it.
	live      map[flitKey]*flit.Flit
	byPtr     map[*flit.Flit]flitKey
	pkts      map[uint64]*pktState
	liveCount int
	delivered uint64 // fully ejected packets

	// termNote is the Note of the grant stage that seizes the output
	// serializer in this architecture; those grants (and all ejects)
	// must respect the STCycles spacing per output.
	termNote string

	liveIn    []int    // live flits per input port (for flit-less grants)
	vcOwner   []uint64 // [output*VCs+vc] packet owning the eject stream, 0 = free
	lastEject []int64  // per output
	lastGrant []int64  // per output, terminal-stage grants

	pools map[poolKey]*pool

	lastProgress int64
	grantsSince  uint64
	nacksSince   uint64
}

// New builds a checker for a router with the given configuration. The
// configuration is normalized with WithDefaults, so pass the same
// Config the router was (or will be) built from.
func New(cfg router.Config) *Checker {
	cfg = cfg.WithDefaults()
	d, _ := router.Describe(cfg.Arch)
	return newChecker(cfg.Radix, cfg.VCs, cfg.STCycles, d.GrantNote)
}

// NewNetAuditor builds a checker for a network whose terminals are its
// ports: terminals of them, vcs virtual channels on each exit channel,
// and serCycles per flit at each terminal serializer (the network
// configuration's values after defaults).
func NewNetAuditor(terminals, vcs, serCycles int) *Checker {
	return newChecker(terminals, vcs, serCycles, "")
}

func newChecker(ports, vcs, serCycles int, grantNote string) *Checker {
	c := &Checker{
		ports:     ports,
		vcs:       vcs,
		ser:       int64(serCycles),
		live:      make(map[flitKey]*flit.Flit),
		byPtr:     make(map[*flit.Flit]flitKey),
		pkts:      make(map[uint64]*pktState),
		termNote:  grantNote,
		liveIn:    make([]int, ports),
		vcOwner:   make([]uint64, ports*vcs),
		lastEject: make([]int64, ports),
		lastGrant: make([]int64, ports),
		pools:     make(map[poolKey]*pool),
	}
	const never = -1 << 40
	for i := range c.lastEject {
		c.lastEject[i] = never
		c.lastGrant[i] = never
	}
	return c
}

// Err returns the first violation detected, or nil. Once a violation
// is recorded the checker stops evaluating further events, so the
// report always points at the root cause rather than at fallout.
func (c *Checker) Err() error {
	if c.err == nil {
		return nil
	}
	return c.err
}

// Observe implements router.Observer.
func (c *Checker) Observe(e router.Event) {
	if c.err != nil {
		return
	}
	switch e.Kind {
	case router.EvAccept:
		c.accept(e)
	case router.EvGrant:
		c.grantsSince++
		c.grant(e)
	case router.EvNack:
		c.nacksSince++
	case router.EvEject:
		c.eject(e)
	case router.EvCredit:
		c.credit(e)
	}
}

// Injected records a flit entering a network at terminal f.Src: the
// accept rule at that port.
func (c *Checker) Injected(now int64, f *flit.Flit) {
	c.Observe(router.Event{Cycle: now, Kind: router.EvAccept, Flit: f, Input: f.Src, Output: f.Dst, VC: f.VC})
}

// Delivered records a flit leaving a network at terminal f.Dst on its
// exit channel's VC f.VC: the eject rule at that port.
func (c *Checker) Delivered(now int64, f *flit.Flit) {
	c.Observe(router.Event{Cycle: now, Kind: router.EvEject, Flit: f, Input: f.Src, Output: f.Dst, VC: f.VC})
}

func (c *Checker) accept(e router.Event) {
	if c.liveCount == 0 {
		// Arrival into an idle device restarts the progress clock; the
		// watchdog should time ejections against work being present.
		c.progress(e.Cycle)
	}
	if c.err = c.admit(e.Cycle, e.Flit); c.err != nil {
		return
	}
	if f := e.Flit; f.Src < 0 || f.Src >= c.ports || f.Dst < 0 || f.Dst >= c.ports {
		c.err = vio(e.Cycle, "flit.shape", "%v: port out of range [0,%d)", f, c.ports)
		return
	}
	c.liveIn[e.Flit.Src]++
}

func (c *Checker) grant(e router.Event) {
	if f := e.Flit; f != nil {
		// A grant that names a flit must name a live one: granting a
		// flit never accepted, already ejected, or recycled means the
		// allocator is working from stale buffer state.
		key, ok := c.byPtr[f]
		if !ok || key.pkt != f.PacketID || key.seq != f.Seq {
			c.err = vio(e.Cycle, "grant.stale", "%s grant at output %d for %v, which is not in flight",
				e.Note, e.Output, f)
			return
		}
	} else if e.Input >= 0 && e.Input < len(c.liveIn) && c.liveIn[e.Input] == 0 {
		// Speculative grants (baseline) carry no flit; the input they
		// name must at least hold one.
		c.err = vio(e.Cycle, "grant.empty", "%s grant to input %d, which holds no flits",
			e.Note, e.Input)
		return
	}
	if e.Note != c.termNote {
		return
	}
	// Terminal-stage grants seize the output serializer, which needs
	// STCycles per flit: two grants closer together would mean two
	// flits multiplexed onto one serializer at once.
	if e.Output < 0 || e.Output >= c.ports {
		c.err = vio(e.Cycle, "grant.serializer", "%s grant at out-of-range output %d", e.Note, e.Output)
		return
	}
	if since := e.Cycle - c.lastGrant[e.Output]; since < c.ser {
		c.err = vio(e.Cycle, "grant.serializer",
			"output %d granted twice within %d cycles (serializer needs %d)", e.Output, since, c.ser)
		return
	}
	c.lastGrant[e.Output] = e.Cycle
}

func (c *Checker) eject(e router.Event) {
	f := e.Flit
	if c.err = c.release(e.Cycle, f); c.err != nil {
		return
	}
	if e.Output != f.Dst {
		c.err = vio(e.Cycle, "flow.misroute", "%v ejected at output %d", f, e.Output)
		return
	}
	if e.VC != f.VC {
		c.err = vio(e.Cycle, "flow.misroute", "%v ejected on VC %d", f, e.VC)
		return
	}
	if since := e.Cycle - c.lastEject[e.Output]; since < c.ser {
		c.err = vio(e.Cycle, "eject.serializer",
			"output %d ejected twice within %d cycles (serializer needs %d)", e.Output, since, c.ser)
		return
	}
	c.lastEject[e.Output] = e.Cycle
	// Output VC single-ownership: a packet's head claims the (output,
	// VC) eject stream and holds it until its tail leaves; any other
	// packet's flit appearing on it means interleaved wormholes.
	slot := e.Output*c.vcs + f.VC
	owner := c.vcOwner[slot]
	if f.Head {
		if owner != 0 {
			c.err = vio(e.Cycle, "vc.busy",
				"%v ejected on output %d VC %d still owned by packet %d", f, e.Output, f.VC, owner)
			return
		}
		if !f.Tail {
			c.vcOwner[slot] = f.PacketID
		}
	} else {
		if owner != f.PacketID {
			c.err = vio(e.Cycle, "vc.owner",
				"%v ejected on output %d VC %d owned by packet %d", f, e.Output, f.VC, owner)
			return
		}
		if f.Tail {
			c.vcOwner[slot] = 0
		}
	}
	if f.Src >= 0 && f.Src < len(c.liveIn) {
		c.liveIn[f.Src]--
	}
	c.progress(e.Cycle)
}

func (c *Checker) credit(e router.Event) {
	key := poolKey{note: e.Note, input: e.Input, output: e.Output, vc: e.VC}
	p := c.pools[key]
	if p == nil {
		p = &pool{depth: e.Depth}
		c.pools[key] = p
	}
	if p.depth != e.Depth {
		c.err = vio(e.Cycle, "credit.depth", "pool %v reported depth %d, previously %d", key, e.Depth, p.depth)
		return
	}
	switch e.Delta {
	case -1:
		p.outstanding++
		if p.outstanding > p.depth {
			c.err = vio(e.Cycle, "credit.overcommit",
				"pool %v has %d credits outstanding, depth %d — a buffer must have overflowed",
				key, p.outstanding, p.depth)
		}
	case +1:
		p.outstanding--
		if p.outstanding < 0 {
			c.err = vio(e.Cycle, "credit.overflow",
				"pool %v returned a credit it never spent", key)
		}
	default:
		c.err = vio(e.Cycle, "credit.delta", "pool %v: credit delta %d is not ±1", key, e.Delta)
	}
}

func (c *Checker) progress(cycle int64) {
	c.lastProgress = cycle
	c.grantsSince = 0
	c.nacksSince = 0
}

// EndCycle closes the cycle: it reconciles the device's own occupancy
// counter against the event-derived live set and runs the progress
// watchdog. Call it after every Step with the device's InFlight().
func (c *Checker) EndCycle(now int64, inFlight int) error {
	if c.err != nil {
		return c.err
	}
	live := c.liveCount
	if inFlight != live {
		c.err = vio(now, "conservation.count",
			"device reports %d flits in flight, events account for %d", inFlight, live)
		return c.err
	}
	if live > 0 && now-c.lastProgress > watchdogCycles {
		f := c.oldestLive()
		c.err = vio(now, "progress.watchdog",
			"no ejection for %d cycles with %d flits in flight; oldest is %v (injected cycle %d); "+
				"%d grants and %d nacks since last progress — deadlock if 0 grants, livelock otherwise",
			now-c.lastProgress, live, f, f.InjectedAt, c.grantsSince, c.nacksSince)
		return c.err
	}
	return nil
}

// Final closes the run: the device must have drained (no live flits)
// and every credit pool must have all its credits home. Call it after
// injection has stopped and InFlight has reached zero. A second call
// returns what the first did.
func (c *Checker) Final(now int64) error {
	if c.err != nil {
		return c.err
	}
	if c.err = c.drained(now); c.err != nil {
		return c.err
	}
	var leaked []poolKey
	for key, p := range c.pools {
		if p.outstanding != 0 {
			leaked = append(leaked, key)
		}
	}
	if len(leaked) > 0 {
		sort.Slice(leaked, func(a, b int) bool {
			x, y := leaked[a], leaked[b]
			if x.note != y.note {
				return x.note < y.note
			}
			if x.input != y.input {
				return x.input < y.input
			}
			if x.output != y.output {
				return x.output < y.output
			}
			return x.vc < y.vc
		})
		detail := fmt.Sprintf("%d pools did not return all credits after drain; first %v is short %d",
			len(leaked), leaked[0], c.pools[leaked[0]].outstanding)
		c.err = vio(now, "credit.leak", "%s", detail)
		return c.err
	}
	return nil
}

// Checked wraps a router with an armed Checker. It satisfies
// router.Router; Step additionally reconciles occupancy each cycle.
type Checked struct {
	router.Router
	chk *Checker
}

// Checker exposes the underlying checker for Err and Final.
func (w *Checked) Checker() *Checker { return w.chk }

// Accept validates that the testbench honored CanAccept before
// forwarding; routers MustPush and would panic on an overfull buffer,
// which the checker turns into a reportable violation instead.
func (w *Checked) Accept(now int64, f *flit.Flit) {
	if w.chk.err == nil && !w.Router.CanAccept(f.Src, f.VC) {
		w.chk.err = vio(now, "flow.accept", "%v accepted while input %d VC %d is full", f, f.Src, f.VC)
		return
	}
	w.Router.Accept(now, f)
}

// Step advances the wrapped router and then closes the checker's
// cycle against the router's occupancy counter.
func (w *Checked) Step(now int64) {
	w.Router.Step(now)
	w.chk.EndCycle(now, w.Router.InFlight())
}

// Wrap builds the configured router with a Checker spliced into its
// observer chain (the checker sees every event first; a previously
// configured observer still receives them all).
func Wrap(cfg router.Config) (*Checked, error) {
	cfg = cfg.WithDefaults()
	chk := New(cfg)
	if prior := cfg.Observer; prior != nil {
		cfg.Observer = router.ObserverFunc(func(e router.Event) {
			chk.Observe(e)
			prior.Observe(e)
		})
	} else {
		cfg.Observer = chk
	}
	r, err := router.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Checked{Router: r, chk: chk}, nil
}
