package check

import (
	"highradix/internal/flit"
)

// NetAuditor validates end-to-end invariants of a multistage network:
// flit conservation between injection and delivery, per-packet
// in-order delivery, per-terminal serializer spacing, and progress.
// It implements the network.Hooks interface structurally (this package
// deliberately does not import internal/network), so it can be handed
// to netbench.Options.Hooks directly.
type NetAuditor struct {
	terminals int
	ser       int64
	opt       Options

	fl  *flow
	err *Violation

	lastDeliver  []int64 // per destination terminal
	lastProgress int64
}

// NewNetAuditor builds an auditor for a network with the given number
// of terminals and per-terminal serialization latency (SerCycles from
// the network configuration, after defaults).
func NewNetAuditor(terminals, serCycles int, opt Options) *NetAuditor {
	if opt.WatchdogCycles <= 0 {
		opt.WatchdogCycles = defaultWatchdog
	}
	a := &NetAuditor{
		terminals:   terminals,
		ser:         int64(serCycles),
		opt:         opt,
		fl:          newFlow(),
		lastDeliver: make([]int64, terminals),
	}
	for i := range a.lastDeliver {
		a.lastDeliver[i] = -1 << 40
	}
	return a
}

// Injected records a flit entering the network.
func (a *NetAuditor) Injected(now int64, f *flit.Flit) {
	if a.err != nil {
		return
	}
	if a.fl.liveCount == 0 {
		a.lastProgress = now
	}
	if a.err = a.fl.accept(now, f); a.err != nil {
		return
	}
	if f.Src < 0 || f.Src >= a.terminals || f.Dst < 0 || f.Dst >= a.terminals {
		a.err = vio(now, "flit.shape", "%v: terminal out of range [0,%d)", f, a.terminals)
	}
}

// Delivered records a flit leaving the network at its destination
// terminal.
func (a *NetAuditor) Delivered(now int64, f *flit.Flit) {
	if a.err != nil {
		return
	}
	if a.err = a.fl.eject(now, f); a.err != nil {
		return
	}
	if since := now - a.lastDeliver[f.Dst]; since < a.ser {
		a.err = vio(now, "eject.serializer",
			"terminal %d received two flits within %d cycles (serializer needs %d)", f.Dst, since, a.ser)
		return
	}
	a.lastDeliver[f.Dst] = now
	a.lastProgress = now
}

// EndCycle reconciles the network's own in-flight counter against the
// auditor's live set and runs the progress watchdog.
func (a *NetAuditor) EndCycle(now int64, inFlight int) error {
	if a.err != nil {
		return a.err
	}
	if inFlight != a.fl.liveCount {
		a.err = vio(now, "conservation.count",
			"network reports %d flits in flight, hooks account for %d", inFlight, a.fl.liveCount)
		return a.err
	}
	if a.fl.liveCount > 0 && now-a.lastProgress > a.opt.WatchdogCycles {
		f := a.fl.oldestLive()
		a.err = vio(now, "progress.watchdog",
			"no delivery for %d cycles with %d flits in flight; oldest is %v (injected cycle %d)",
			now-a.lastProgress, a.fl.liveCount, f, f.InjectedAt)
		return a.err
	}
	return nil
}

// Final asserts the network drained completely.
func (a *NetAuditor) Final(now int64) error {
	if a.err != nil {
		return a.err
	}
	a.err = a.fl.drained(now)
	if a.err != nil {
		return a.err
	}
	return nil
}
