package network

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"highradix/internal/check"
	"highradix/internal/drive"
	"highradix/internal/traffic"
)

// Gap-sampled terminal sources have the same twin discipline at network
// scale as in the single-router testbench: an event-driven gap run and
// a dense gap run (NoFastForward, same Injection) must see identical
// terminal-boundary event streams, Results, and auditor verdicts. The
// low load (where jumps actually fire) is the interesting regime.

func TestNetGapFastForwardTwin(t *testing.T) {
	cases := []struct {
		cfg  Config
		seed uint64
		load float64
	}{
		{Config{Radix: 4, Digits: 2}, 3, 0.1},
		{Config{Radix: 4, Digits: 3}, 5, 0.25},
		{Config{Radix: 8, Digits: 2}, 7, 0.4},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("k%dd%d", c.cfg.Radix, c.cfg.Digits), func(t *testing.T) {
			run := func(noFF bool, hooked bool) ([]netEvent, Result, error) {
				clos, err := NewClos(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				rec := &recHooks{}
				o := Options{
					Net:           c.cfg,
					Load:          c.load,
					WarmupCycles:  300,
					MeasureCycles: 600,
					Seed:          c.seed,
					Hooks:         rec,
					NoFastForward: noFF,
					Injection:     traffic.InjGap,
				}
				if hooked {
					rec.inner = check.NewNetAuditor(clos.Terminals(), clos.VCs(), clos.SerCycles())
				}
				res, err := Run(o)
				return rec.events, res, err
			}
			for _, hooked := range []bool{false, true} {
				ffEv, ffRes, ffErr := run(false, hooked)
				dEv, dRes, dErr := run(true, hooked)
				if (ffErr == nil) != (dErr == nil) ||
					(ffErr != nil && ffErr.Error() != dErr.Error()) {
					t.Fatalf("hooked=%v: error mismatch: fast-forward %v, dense %v", hooked, ffErr, dErr)
				}
				if ffRes != dRes {
					t.Fatalf("hooked=%v: result mismatch:\nfast-forward %+v\ndense        %+v", hooked, ffRes, dRes)
				}
				if len(ffEv) != len(dEv) {
					t.Fatalf("hooked=%v: event count mismatch: fast-forward %d, dense %d", hooked, len(ffEv), len(dEv))
				}
				for i := range ffEv {
					if ffEv[i] != dEv[i] {
						t.Fatalf("hooked=%v: event %d mismatch:\nfast-forward %+v\ndense        %+v", hooked, i, ffEv[i], dEv[i])
					}
				}
			}
		})
	}
}

// TestNetGapMatchesPerCycle cross-checks the modes end to end at the
// same offered load; tolerances are statistical (the draw sequences
// differ by construction).
func TestNetGapMatchesPerCycle(t *testing.T) {
	base := Options{
		Net:           Config{Radix: 8, Digits: 2},
		Load:          0.2,
		WarmupCycles:  500,
		MeasureCycles: 2000,
		Seed:          9,
	}
	pc, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	g := base
	g.Injection = traffic.InjGap
	gr, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Saturated || gr.Saturated {
		t.Fatalf("unexpected saturation (percycle %v, gap %v)", pc.Saturated, gr.Saturated)
	}
	if d := math.Abs(pc.Throughput - gr.Throughput); d > 0.02 {
		t.Errorf("throughput percycle %.4f vs gap %.4f", pc.Throughput, gr.Throughput)
	}
	if d := math.Abs(pc.AvgLatency - gr.AvgLatency); d > 0.15*pc.AvgLatency+1 {
		t.Errorf("latency percycle %.2f vs gap %.2f", pc.AvgLatency, gr.AvgLatency)
	}
}

// TestEngineCalendarsSurviveIdleGaps: a run whose packets lie millions
// of cycles apart jumps every stretch between them, so each packet's
// first event meets calendars whose windows still stand where the last
// packet left them. They must slide, not grow to the length of the gap.
func TestEngineCalendarsSurviveIdleGaps(t *testing.T) {
	o := Options{
		Net:       Config{Radix: 4, Digits: 2},
		Load:      2e-8, // 16 terminals: a packet every ~3M cycles
		PktLen:    1,
		Seed:      1,
		Injection: traffic.InjGap,
	}.WithDefaults()
	topo, err := o.Topology()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(o, topo, whole(topo), 0)
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
