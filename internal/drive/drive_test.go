package drive

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"highradix/internal/sim"
)

// script is a World small enough to read at a glance: single-flit
// packets are generated at scripted cycles, wait hold cycles at their
// source and are delivered latency cycles after leaving it. It logs the
// cycles it was asked to simulate, which is what the legality argument
// of DESIGN.md ("The driver") is about.
type script struct {
	gen           map[int64]int // cycle -> packets generated in it
	hold, latency int64
	perCycle      bool  // the source draws randomness every live cycle
	recorded      bool  // the source replays a recording: live whatever the phase
	leak          bool  // flits vanish where they should be delivered
	auditAt       int64 // Cycle fails here
	flits         []scriptFlit
	genFlits      int64
	labeled       int64
	seen          []int64 // cycles simulated, and the backlog each ended with
	queued        []int64
}

type scriptFlit struct {
	created int64
	labeled bool
}

var errAudit = errors.New("audit violation")

func (s *script) Cycle(now int64, ph Phase, t *Tally) error {
	s.seen = append(s.seen, now)
	if ph.Generating || s.recorded {
		for i := 0; i < s.gen[now]; i++ {
			s.flits = append(s.flits, scriptFlit{now, ph.Measuring})
			s.genFlits++
			if ph.Measuring {
				s.labeled++
			}
		}
	}
	s.flits = slices.DeleteFunc(s.flits, func(f scriptFlit) bool {
		if f.created+s.hold+s.latency != now {
			return false
		}
		if !s.leak {
			t.Deliver(f.created, 1, true, f.labeled)
		}
		return true
	})
	s.queued = append(s.queued, s.Backlog())
	if now == s.auditAt {
		return errAudit
	}
	return nil
}

// count returns the flits still at their source (queued) or past it.
func (s *script) count(now int64, queued bool) (n int) {
	for _, f := range s.flits {
		if (now < f.created+s.hold) == queued {
			n++
		}
	}
	return n
}

func (s *script) Backlog() int64         { return int64(s.count(s.seen[len(s.seen)-1], true)) }
func (s *script) InFlight() int          { return s.count(s.seen[len(s.seen)-1], false) }
func (s *script) GenFlits() int64        { return s.genFlits }
func (s *script) InjectedLabeled() int64 { return s.labeled }

func (s *script) NextWake(now int64, live bool) int64 {
	wake := sim.NoWake
	for _, f := range s.flits {
		wake = min(wake, f.created+s.hold+s.latency)
	}
	if live || s.recorded {
		if s.perCycle {
			return now + 1
		}
		for c := range s.gen {
			if c > now {
				wake = min(wake, c)
			}
		}
	}
	return wake
}

// scripts is the table: between them the rows reach every branch of the
// jump rule and both exit rules. Phases are Warmup 10, Measure 20
// (window [10, 30)), Drain 40 unless a row says otherwise.
var scripts = []struct {
	name   string
	c      Config
	w      script
	cycles int64 // expected Tally.Cycles
}{
	{name: "percycle/plain", w: script{perCycle: true, gen: map[int64]int{3: 1, 12: 2, 28: 1}, latency: 5}, cycles: 34},
	{name: "percycle/audited", c: Config{Audited: true}, w: script{perCycle: true, gen: map[int64]int{3: 1, 12: 2, 28: 1, 33: 4}, latency: 9}, cycles: 38},
	{name: "sparse/plain", w: script{gen: map[int64]int{2: 1, 14: 1, 60: 1}, latency: 3}, cycles: 31},
	{name: "sparse/jump over window start", w: script{gen: map[int64]int{2: 1, 25: 1}, latency: 3}, cycles: 31},
	{name: "sparse/audited", c: Config{Audited: true}, w: script{gen: map[int64]int{2: 1, 14: 1, 29: 3, 31: 1}, latency: 7}, cycles: 37},
	{name: "sparse/held at source", w: script{gen: map[int64]int{14: 2}, hold: 6, latency: 30}, cycles: 51},
	{name: "sparse/nothing labeled", w: script{gen: map[int64]int{40: 1}, latency: 2}, cycles: 31},
	{name: "sparse/leaked sample", w: script{leak: true, gen: map[int64]int{14: 1, 27: 1}, latency: 6}, cycles: 34},
	{name: "sparse/bound", c: Config{Drain: 8}, w: script{gen: map[int64]int{20: 1}, latency: 100}, cycles: 38},
	{name: "sparse/audited bound", c: Config{Audited: true, Drain: 8}, w: script{gen: map[int64]int{20: 1}, latency: 100}, cycles: 38},
	{name: "recorded/extended bound", c: Config{SourceEnd: 50, Drain: 8}, w: script{recorded: true, gen: map[int64]int{20: 1, 50: 1}, latency: 100}, cycles: 58},
	{name: "recorded/audited", c: Config{Audited: true, SourceEnd: 45}, w: script{recorded: true, gen: map[int64]int{5: 1, 29: 1, 31: 1, 45: 2}, latency: 4}, cycles: 36},
}

// TestDriverLegality is the legality argument as one test. For every
// scripted world: (a) no cycle in which a per-cycle source is live is
// skipped; (b) no jump crosses the end of the window or the bound, and
// OnMeasureStart fires exactly once, before the first simulated cycle
// at or past the start of the window, even when a jump lands there;
// (c) the jumping run measures what the dense run measures, Cycles
// included, whichever exit rule ends it.
func TestDriverLegality(t *testing.T) {
	for _, tc := range scripts {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			c.Warmup, c.Measure = 10, 20
			if c.Drain == 0 {
				c.Drain = 40
			}
			run := func(dense bool) (*Tally, *script, int) {
				w := tc.w
				w.auditAt = -1
				w.flits, w.seen, w.queued = nil, nil, nil
				c := c
				c.Dense = dense
				hookAt := -1
				c.OnMeasureStart = func() {
					if hookAt >= 0 {
						t.Errorf("OnMeasureStart fired twice")
					}
					hookAt = len(w.seen)
				}
				tally, err := Run(c, func() World { return &w })
				if err != nil {
					t.Fatal(err)
				}
				return tally, &w, hookAt
			}
			dense, dw, _ := run(true)
			got, w, hookAt := run(false)

			if dense.Cycles != tc.cycles {
				t.Errorf("dense run took %d cycles, script expects %d", dense.Cycles, tc.cycles)
			}
			if len(dw.seen) != int(dense.Cycles) {
				t.Errorf("dense run simulated %d of its %d cycles", len(dw.seen), dense.Cycles)
			}
			if fmt.Sprint(*got.Lat) != fmt.Sprint(*dense.Lat) {
				t.Errorf("latency sample differs from the dense run's")
			}
			got.Lat, dense.Lat = nil, nil
			got.now, dense.now = 0, 0 // the last cycle simulated, which a jump to the bound passes over
			if *got != *dense {
				t.Errorf("jumping run measured %+v, dense run %+v", *got, *dense)
			}

			measEnd := c.Warmup + c.Measure
			for i, at := range w.seen {
				if at >= c.Bound() {
					t.Errorf("simulated cycle %d at or past the bound %d", at, c.Bound())
				}
				if i == 0 {
					continue
				}
				prev := w.seen[i-1]
				if prev < measEnd && at > measEnd {
					t.Errorf("jump from %d to %d crosses the end of the window", prev, at)
				}
				if w.perCycle && at != prev+1 && c.At(prev+1).Generating {
					t.Errorf("jump from %d to %d skips cycles in which the per-cycle source is live", prev, at)
				}
				if w.queued[i-1] > 0 && at != prev+1 {
					t.Errorf("jump from %d to %d with %d flits queued at sources", prev, at, w.queued[i-1])
				}
			}
			if len(w.seen) == len(dw.seen) && !w.perCycle {
				t.Errorf("script never jumped")
			}
			if hookAt < 0 || w.seen[hookAt] < c.Warmup || (hookAt > 0 && w.seen[hookAt-1] >= c.Warmup) {
				t.Errorf("OnMeasureStart fired before simulated cycle index %d of %v, window starts at %d", hookAt, w.seen, c.Warmup)
			}
		})
	}
}

// TestDriverAuditAborts: an error from the world's Cycle ends the run
// with that error, at that cycle.
func TestDriverAuditAborts(t *testing.T) {
	w := script{perCycle: true, auditAt: 17}
	_, err := Run(Config{Warmup: 10, Measure: 20, Drain: 40, Audited: true}, func() World { return &w })
	if !errors.Is(err, errAudit) {
		t.Fatalf("run returned %v, want the audit error", err)
	}
	if last := w.seen[len(w.seen)-1]; last != 17 {
		t.Errorf("run continued to cycle %d after the audit failed at 17", last)
	}
}

func TestCheckLoad(t *testing.T) {
	for _, tc := range []struct {
		load        float64
		ser, pktLen int
		ok          bool
	}{
		{0, 4, 1, true}, {1, 4, 1, true}, {4, 4, 1, true}, {8, 4, 2, true},
		{-0.5, 4, 1, false}, {4.01, 4, 1, false}, {8, 4, 1, false}, {1.5, 1, 1, false},
		{math.NaN(), 4, 1, false}, {math.Inf(1), 4, 1, false},
	} {
		if err := CheckLoad(tc.load, tc.ser, tc.pktLen); (err == nil) != tc.ok {
			t.Errorf("CheckLoad(%v, %d, %d) = %v, want ok=%v", tc.load, tc.ser, tc.pktLen, err, tc.ok)
		}
	}
}
