package network

import (
	"fmt"
	"reflect"
	"testing"

	"highradix/internal/check"
	"highradix/internal/drive"
	"highradix/internal/flit"
	"highradix/internal/traffic"
)

// The network-scale twin of testbench's fast-forward equivalence test:
// a run with NoFastForward set and one without must see the same
// terminal-boundary event stream (injections and deliveries), the same
// Result, and the same auditor verdict.

type netEvent struct {
	Cycle    int64
	Deliver  bool
	PacketID uint64
	Seq      int
	Src, Dst int
}

// recHooks records every terminal-boundary event, optionally forwarding
// to a wrapped Hooks (the auditor) so checked runs are recorded too.
type recHooks struct {
	events []netEvent
	inner  Hooks
}

func (h *recHooks) Injected(now int64, f *flit.Flit) {
	h.events = append(h.events, netEvent{Cycle: now, PacketID: f.PacketID, Seq: f.Seq, Src: f.Src, Dst: f.Dst})
	if h.inner != nil {
		h.inner.Injected(now, f)
	}
}

func (h *recHooks) Delivered(now int64, f *flit.Flit) {
	h.events = append(h.events, netEvent{Cycle: now, Deliver: true, PacketID: f.PacketID, Seq: f.Seq, Src: f.Src, Dst: f.Dst})
	if h.inner != nil {
		h.inner.Delivered(now, f)
	}
}

func (h *recHooks) EndCycle(now int64, inFlight int) error {
	if h.inner != nil {
		return h.inner.EndCycle(now, inFlight)
	}
	return nil
}

func (h *recHooks) Final(now int64) error {
	if h.inner != nil {
		return h.inner.Final(now)
	}
	return nil
}

func TestNetFastForwardTwin(t *testing.T) {
	cases := []struct {
		cfg  Config
		seed uint64
	}{
		{Config{Radix: 4, Digits: 2}, 3},
		{Config{Radix: 4, Digits: 3}, 5},
		{Config{Radix: 8, Digits: 2}, 7},
	}
	for _, c := range cases {
		cfg := c.cfg
		t.Run(fmt.Sprintf("k%dd%d", cfg.Radix, cfg.Digits), func(t *testing.T) {
			run := func(noFF bool) ([]netEvent, Result, error) {
				clos, err := NewClos(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rec := &recHooks{inner: check.NewNetAuditor(clos.Terminals(), clos.VCs(), clos.SerCycles())}
				res, err := Run(Options{
					Net:           cfg,
					Load:          0.4,
					WarmupCycles:  300,
					MeasureCycles: 600,
					Seed:          c.seed,
					Hooks:         rec,
					NoFastForward: noFF,
				})
				return rec.events, res, err
			}
			ffEv, ffRes, ffErr := run(false)
			dEv, dRes, dErr := run(true)
			if (ffErr == nil) != (dErr == nil) ||
				(ffErr != nil && ffErr.Error() != dErr.Error()) {
				t.Fatalf("error mismatch: fast-forward %v, dense %v", ffErr, dErr)
			}
			if ffRes != dRes {
				t.Fatalf("result mismatch:\nfast-forward %+v\ndense        %+v", ffRes, dRes)
			}
			if len(ffEv) != len(dEv) {
				t.Fatalf("event count mismatch: fast-forward %d, dense %d", len(ffEv), len(dEv))
			}
			for i := range ffEv {
				if ffEv[i] != dEv[i] {
					t.Fatalf("event %d mismatch:\nfast-forward %+v\ndense        %+v", i, ffEv[i], dEv[i])
				}
			}
		})
	}
}

// Unhooked runs may not jump time (generation draws RNG every cycle)
// but still skip quiescent Steps; their results must match dense runs
// exactly too.
func TestNetFastForwardTwinUnhooked(t *testing.T) {
	run := func(noFF bool) (Result, error) {
		return Run(Options{
			Net:           Config{Radix: 4, Digits: 2},
			Load:          0.3,
			WarmupCycles:  300,
			MeasureCycles: 600,
			Seed:          11,
			NoFastForward: noFF,
		})
	}
	ffRes, ffErr := run(false)
	dRes, dErr := run(true)
	if (ffErr == nil) != (dErr == nil) {
		t.Fatalf("error mismatch: fast-forward %v, dense %v", ffErr, dErr)
	}
	if ffRes != dRes {
		t.Fatalf("result mismatch:\nfast-forward %+v\ndense        %+v", ffRes, dRes)
	}
}

// TestEngineCalendarsSurviveIdleGaps: a run whose packets lie millions
// of cycles apart jumps every stretch between them, so each packet's
// first event meets calendars whose windows still stand where the last
// packet left them. They must slide, not grow to the length of the gap.
// Only gap-sampled sources make such a run affordable, and no network
// option selects them, so the test builds its plant's bank itself.
func TestEngineCalendarsSurviveIdleGaps(t *testing.T) {
	o := Options{
		Net:    Config{Radix: 4, Digits: 2},
		Load:   2e-8, // 16 terminals: a packet every ~3M cycles
		PktLen: 1,
		Seed:   1,
	}.WithDefaults()
	topo, err := o.Topology()
	if err != nil {
		t.Fatal(err)
	}
	src := o.SourceOpts(topo)
	src.Injection = traffic.InjGap
	nw := NewNetwork(topo, o.RouteSeed())
	w := &World{Net: nw, Plant: drive.Plant{Dev: nw, Bank: newSources(topo, src, func(int) bool { return true })}}
	tally, err := drive.Run(drive.Config{Measure: 50_000_000}, func() drive.World { return w })
	if err != nil {
		t.Fatal(err)
	}
	if tally.Flits < 2 || tally.Flits > 40 {
		t.Fatalf("%d flits delivered in %d cycles; the test wants a few, far apart", tally.Flits, tally.Cycles)
	}
	ring := func(cal any) int { return reflect.ValueOf(cal).Elem().FieldByName("buckets").Len() }
	fresh := NewNetwork(topo, 0)
	for _, c := range []struct {
		name       string
		ran, built any
	}{
		{"arrivals", w.Net.arrivals, fresh.arrivals},
		{"credits", w.Net.credits, fresh.credits},
		{"toTerm", w.Net.toTerm, fresh.toTerm},
	} {
		if got, want := ring(c.ran), ring(c.built); got != want {
			t.Errorf("%s calendar ended the run with %d buckets, built with %d", c.name, got, want)
		}
	}
}
