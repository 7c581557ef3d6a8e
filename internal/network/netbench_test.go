package network

import (
	"errors"
	"testing"

	"highradix/internal/flit"
)

// finalHooks counts the end-of-run audits a run asks of it and answers
// each with err.
type finalHooks struct {
	finals int
	err    error
}

func (h *finalHooks) Injected(int64, *flit.Flit)  {}
func (h *finalHooks) Delivered(int64, *flit.Flit) {}
func (h *finalHooks) EndCycle(int64, int) error   { return nil }
func (h *finalHooks) Final(int64) error           { h.finals++; return h.err }

// TestRunClosesDrainedRun: Run applies the end-of-run audit to exactly
// the runs that drained, whether or not they are flagged saturated, and
// returns its error; a run that ran out of drain cycles is never held to
// it.
func TestRunClosesDrainedRun(t *testing.T) {
	errFinal := errors.New("final audit")
	base := Options{Net: Config{Radix: 4, Digits: 2}, WarmupCycles: 300, MeasureCycles: 600, Seed: 1}

	// A 1-cycle saturation latency flags every run saturated; at load
	// 0.3 it still drains.
	drains := base
	drains.Load, drains.SatLatency = 0.3, 1
	h := &finalHooks{}
	drains.Hooks = h
	res, err := Run(drains)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || h.finals != 1 {
		t.Fatalf("drained run: saturated %v, Final called %d times; want true, 1", res.Saturated, h.finals)
	}
	h = &finalHooks{err: errFinal}
	drains.Hooks = h
	if _, err := Run(drains); !errors.Is(err, errFinal) || h.finals != 1 {
		t.Fatalf("drained run: Run returned %v after %d Final calls; want the audit's error after 1", err, h.finals)
	}

	// At full load with one drain cycle the run cannot empty.
	stuck := base
	stuck.Load, stuck.DrainCycles = 1, 1
	h = &finalHooks{err: errFinal}
	stuck.Hooks = h
	if _, err := Run(stuck); err != nil || h.finals != 0 {
		t.Fatalf("undrained run: Run returned %v after %d Final calls; want nil after 0", err, h.finals)
	}
}
