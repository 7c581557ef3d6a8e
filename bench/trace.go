package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one call the harness made into a layer, recorded in memory
// and written out when the run ends. Layer is the package name of the
// callee ("testbench", "serve", ...) or "bench" for harness-owned work
// that composes layers (a client GET, a dense stepping loop). Parent is
// the index of the span that caused this one, -1 at the top; spans of
// one operation share Op.
type span struct {
	Layer  string
	Name   string
	Start  time.Duration // since tracer start
	Dur    time.Duration
	Parent int
	Op     int
	Lane   int // trace-viewer row: one per concurrent actor
	// Calls > 0 marks an aggregate: Dur is the total of Calls
	// back-to-back calls too short to record one by one (a Step per
	// simulated cycle), laid out from the parent's start.
	Calls int64
}

// tracer collects spans and counts. A nil *tracer is the untraced
// mode: every method is a no-op, so workload code calls it
// unconditionally and end-to-end runs pay one nil check per boundary.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(layer, name string, parent, op, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: now, Parent: parent, Op: op, Lane: lane})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].Dur = now - t.spans[id].Start
	t.mu.Unlock()
}

// aggregate records calls back-to-back calls totalling dur as one
// child of parent.
func (t *tracer) aggregate(layer, name string, parent int, calls int64, dur time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: p.Start, Dur: dur,
		Parent: parent, Op: p.Op, Lane: p.Lane, Calls: calls})
	t.mu.Unlock()
}

// count adds n to a named counter, taken at the same boundary as the
// spans so ratios are measured where the work happens.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// layerTime is a layer's share of the traced wall-clock.
type layerTime struct {
	Layer string
	Spans int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part child spans cover
}

// len is the number of spans recorded so far.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes attributes the time of the spans recorded since the
// tracer held from of them to layers: a span's self time is its
// duration minus its direct children's (clamped at zero, since
// children on other lanes may overlap each other).
func (t *tracer) selfTimes(from int) []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		if i < from {
			continue
		}
		lt := by[s.Layer]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer}
			by[s.Layer] = lt
		}
		lt.Spans++
		lt.Total += s.Dur
		if self := s.Dur - child[i]; self > 0 {
			lt.Self += self
		}
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeChrome writes the spans in Chrome trace-event format ("X"
// complete events, microsecond timestamps), which chrome://tracing and
// Perfetto load directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.Parent, "op": s.Op}
		if s.Calls > 0 {
			args["aggregated_calls"] = s.Calls
		}
		events[i] = event{Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args}
	}
	counts := t.counts
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "counts": counts}); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
