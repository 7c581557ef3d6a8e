// Package drive is the one place that knows the evaluation method of
// the paper's Section 4.3, both halves of it. The procedure (this file):
// warm a system up, label the packets generated during a measurement
// window, then drain until the labeled sample has been delivered — the
// phase arithmetic, the exit rules and the argument for when simulated
// time may jump, written and tested, against a scripted world, once.
// And the front end (bank.go): Bernoulli or Markov ON/OFF sources,
// unbounded source queues and flit-serialized injection channels with a
// VC chosen per packet, as one Bank that feeds any Device — a single
// router, a whole network, one shard's slice of one — and with it forms
// the Plant that is the World the single-router testbench, the serial
// network run and every worker of the sharded one advance; it is tested
// against a scripted device. DESIGN.md ("The driver") gives the
// arguments.
package drive

import (
	"fmt"

	"highradix/internal/stats"
)

// Config sizes the phases of one run and selects its exit rule.
type Config struct {
	// Warmup, Measure and Drain are the phase lengths in cycles. The
	// measurement window is [Warmup, Warmup+Measure); Drain bounds how
	// long the run may continue past it.
	Warmup, Measure, Drain int64
	// SourceEnd is the last cycle at which a recorded source (a trace
	// replay) still generates. When it lies past the window the drain
	// bound counts from it instead. Zero for synthetic sources.
	SourceEnd int64
	// Audited runs stop generating at the end of the window and continue
	// until every generated flit — not just the labeled sample — has been
	// delivered, so an auditor can verify conservation end to end.
	Audited bool
	// Dense forbids time jumps and skipped Steps: every cycle up to the
	// exit is simulated, and the device stepped in each (Phase.Dense).
	// Both are exact, so this exists for A/B verification.
	Dense bool
	// OnMeasureStart, when non-nil, is called once, before the first
	// simulated cycle at or past the start of the window.
	OnMeasureStart func()
}

// Phase says what the sources of a World do in one cycle.
type Phase struct {
	// Measuring: packets generated this cycle join the labeled sample.
	Measuring bool
	// Generating: synthetic sources are live this cycle. False only past
	// the window of an audited run, and then for good.
	Generating bool
	// Dense: the device is stepped this cycle even with no wake-up due
	// (Config.Dense).
	Dense bool
}

func (c Config) measEnd() int64 { return c.Warmup + c.Measure }

// Bound is the cycle a run stops at when neither exit rule has fired.
func (c Config) Bound() int64 { return max(c.measEnd(), c.SourceEnd) + c.Drain }

// At returns the phase of cycle now.
func (c Config) At(now int64) Phase {
	return Phase{
		Measuring:  now >= c.Warmup && now < c.measEnd(),
		Generating: !c.Audited || now < c.measEnd(),
		Dense:      c.Dense,
	}
}

// Waker is the part of a World the jump rule reads — all a shard
// worker's in-epoch jump needs of its slice of a network.
type Waker interface {
	// Backlog returns the flits generated but still queued at sources.
	Backlog() int64
	// NextWake returns a lower bound, at least now+1, on the next cycle
	// in which anything can happen given an empty backlog: the system's
	// own next internal event or, while live says synthetic generation
	// can still fire at now+1, the next cycle a source may generate. A
	// source that decides every cycle by a draw has taken its draws ahead
	// and knows that cycle too (bank.go); one that cannot know answers
	// now+1. A recorded source is consulted whatever live says.
	NextWake(now int64, live bool) int64
}

// World is a simulated system under the driver.
type World interface {
	// Cycle simulates cycle now — generate as ph directs, inject, step —
	// and hands every flit delivered in it to t.Deliver. A non-nil error
	// (an audit violation) aborts the run.
	Cycle(now int64, ph Phase, t *Tally) error
	Waker
	// InFlight returns the flits injected and not yet delivered; zero
	// exactly when the system behind the sources is empty.
	InFlight() int
	// GenFlits returns the flits generated so far. Read only past the
	// window of an audited run, where generation has stopped.
	GenFlits() int64
	// InjectedLabeled returns the packets generated in the window. Read
	// only past the window, where labeling has stopped.
	InjectedLabeled() int64
}

// Tally is what a run measured.
type Tally struct {
	// Lat samples labeled-packet latency, generation to tail delivery.
	Lat *stats.Sample
	// WindowFlits counts flits delivered during the measurement window.
	WindowFlits int64
	// Labeled counts labeled packets delivered, Hops their router
	// traversals, Flits every delivered flit.
	Labeled, Hops, Flits int64
	// InjectedLabeled is the size of the labeled sample.
	InjectedLabeled int64
	// Cycles is the simulated cycle count; DrainUsed how many of them lay
	// past the window (Drain when the bound was exhausted).
	Cycles, DrainUsed int64
	// Drained reports an audited run that ended with every generated
	// flit delivered: the one run an auditor's end-of-run checks (an
	// empty system, every credit home) may be applied to.
	Drained bool

	now       int64
	measuring bool
	window    int64
}

// Deliver accounts one flit delivered in the cycle being simulated.
func (t *Tally) Deliver(createdAt int64, hops int, tail, measured bool) {
	if t.measuring {
		t.WindowFlits++
	}
	if tail && measured {
		t.Lat.Add(float64(t.now - createdAt))
		t.Hops += int64(hops)
		t.Labeled++
	}
	t.Flits++
}

// Throughput is the accepted throughput in the window as a fraction of
// capacity: one flit per ser cycles on each of ports channels.
func (t *Tally) Throughput(ports, ser int) float64 {
	return float64(t.WindowFlits) * float64(ser) / (float64(ports) * float64(t.window))
}

// AvgHops is the mean router traversals per labeled packet.
func (t *Tally) AvgHops() float64 {
	if t.Labeled == 0 {
		return 0
	}
	return float64(t.Hops) / float64(t.Labeled)
}

// Saturated reports that the run did not reach steady state: part of
// the labeled sample was never delivered, or its mean latency diverged
// past satLatency.
func (t *Tally) Saturated(satLatency float64) bool {
	return t.Labeled < t.InjectedLabeled || t.Lat.Mean() > satLatency
}

// planted is a World that is a Plant: its bank's draws are Run's to
// place.
type planted interface{ plant() *Plant }

func (p *Plant) plant() *Plant { return p }

// Run advances the world build returns through warmup, measurement and
// drain. Each simulated cycle is: the world's Cycle (which accounts its
// deliveries and audits), the exit check, then the jump. Run counts its
// goroutine against the CPU budget before it calls build, so a world
// that spreads over CPUs the budget leaves spare (ClaimSpare) sees this
// run counted; then, when the world is a Plant and the budget still has
// a CPU spare, Run gives the bank's draws a producer goroutine of their
// own, which it stops and joins on every way out. A phase no run can
// have — a negative warmup or drain, or a measurement window shorter
// than one cycle — is an error before anything is built.
func Run(c Config, build func() World) (*Tally, error) {
	if c.Warmup < 0 || c.Measure < 1 || c.Drain < 0 {
		return nil, fmt.Errorf("phases of %d warmup, %d measure and %d drain cycles: want warmup and drain >= 0 and measure >= 1",
			c.Warmup, c.Measure, c.Drain)
	}
	defer Claim(1)()
	if testHookClaimed != nil {
		testHookClaimed()
	}
	w := build()
	if p, ok := w.(planted); ok {
		if b := p.plant().Bank; b.startDraws() {
			defer b.stopDraws()
		}
	}
	if testHookDecided != nil {
		testHookDecided()
	}
	t := &Tally{Lat: stats.NewSample(8192), window: c.Measure}
	measEnd, bound := c.measEnd(), c.Bound()
	var jump Waker = w // converted once, not per cycle
	now := int64(0)
	for now < bound {
		if c.OnMeasureStart != nil && now >= c.Warmup {
			c.OnMeasureStart()
			c.OnMeasureStart = nil // once
		}
		ph := c.At(now)
		t.now, t.measuring = now, ph.Measuring
		if err := w.Cycle(now, ph, t); err != nil {
			return nil, err
		}
		if now >= measEnd && c.done(w, t) {
			now++
			break
		}
		now = c.Wake(jump, now, bound)
	}
	t.Cycles, t.DrainUsed = now, max(now-measEnd, 0)
	t.InjectedLabeled = w.InjectedLabeled()
	t.Drained = c.Audited && t.Flits >= w.GenFlits()
	return t, nil
}

// done is the exit rule past the window. An audited run ends when every
// generated flit has been delivered. A plain run ends when the labeled
// sample has been, or the moment the world is provably empty: with no
// source backlog and nothing in flight no further delivery can occur,
// so waiting out the bound would only burn cycles (and, in a world that
// leaked labeled packets, mask the loss — Saturated still flags it).
func (c Config) done(w World, t *Tally) bool {
	if c.Audited {
		return t.Flits >= w.GenFlits()
	}
	return t.Labeled >= w.InjectedLabeled() || (w.Backlog() == 0 && w.InFlight() == 0)
}

// Wake is the jump rule: the next cycle after now that must be
// simulated, never past bound. Time jumps only when no source holds a
// flit, and then to the world's NextWake — which never passes over a
// cycle in which a source could generate, and stops counting pending
// generation once it can no longer fire. The skipped cycles are
// identical to dense stepping: no draw skipped (the draws that decide
// them were taken, in stream order, before them), nothing injected or
// delivered, and no exit check that could read differently than it did
// at now. A jump from inside the window stops at its end, so no cycle
// whose phase differs from now's is crossed without being simulated;
// the window's start needs no such cap because the cycles before it
// differ only in labeling, and skipped cycles generate nothing to label.
func (c Config) Wake(w Waker, now, bound int64) int64 {
	if c.Dense || w.Backlog() != 0 {
		return now + 1
	}
	wake := w.NextWake(now, c.At(now+1).Generating)
	if measEnd := c.measEnd(); now < measEnd && wake > measEnd {
		wake = measEnd
	}
	return max(now+1, min(wake, bound))
}

// CheckLoad rejects an offered load no source can produce: in packets
// shorter than one flit, negative, not a number, or above one packet per
// cycle per source (load is a fraction of channel capacity, one flit per
// ser cycles, in packets of pktLen flits).
func CheckLoad(load float64, ser, pktLen int) error {
	if pktLen < 1 {
		return fmt.Errorf("packet length %d: want at least one flit", pktLen)
	}
	if !(load >= 0) {
		return fmt.Errorf("load %.3g is negative or not a number", load)
	}
	if load/float64(ser*pktLen) > 1 {
		return fmt.Errorf("load %.3g needs more than one packet per cycle per source", load)
	}
	return nil
}
