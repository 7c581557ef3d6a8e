package traffic

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"highradix/internal/sim"
)

// TraceEntry is one packet of a recorded workload.
type TraceEntry struct {
	// Cycle is the generation time at the source.
	Cycle int64
	// Src and Dst are ports (single-router) or terminals (network).
	Src, Dst int
	// Len is the packet length in flits.
	Len int
}

// Trace is a replayable workload: a time-sorted list of packets. It
// lets the testbench drive a router with recorded or externally
// generated traffic instead of a synthetic process. A Trace is immutable
// once built — a replay's position belongs to whoever replays it
// (drive.Bank) — so any number of runs, concurrent ones included, may
// share one.
type Trace struct {
	entries []TraceEntry
}

// NewTrace builds a trace from entries, sorting them by cycle (stable,
// so same-cycle entries keep their relative order).
func NewTrace(entries []TraceEntry) *Trace {
	es := append([]TraceEntry(nil), entries...)
	sort.SliceStable(es, func(i, j int) bool { return es[i].Cycle < es[j].Cycle })
	return &Trace{entries: es}
}

// Len returns the number of packets in the trace.
func (t *Trace) Len() int { return len(t.entries) }

// Entries returns the sorted entries (shared slice; do not mutate).
func (t *Trace) Entries() []TraceEntry { return t.entries }

// Duration returns the cycle of the last entry (0 for an empty trace).
func (t *Trace) Duration() int64 {
	if len(t.entries) == 0 {
		return 0
	}
	return t.entries[len(t.entries)-1].Cycle
}

// LoadTrace parses the text trace format: one packet per line as
// "cycle,src,dst,len" (len optional, default 1), with blank lines and
// '#' comments ignored.
func LoadTrace(r io.Reader) (*Trace, error) {
	var entries []TraceEntry
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 && len(parts) != 4 {
			return nil, fmt.Errorf("traffic: trace line %d: want cycle,src,dst[,len], got %q", lineNo, line)
		}
		var e TraceEntry
		var err error
		if e.Cycle, err = strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad cycle: %w", lineNo, err)
		}
		if e.Src, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad src: %w", lineNo, err)
		}
		if e.Dst, err = strconv.Atoi(strings.TrimSpace(parts[2])); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad dst: %w", lineNo, err)
		}
		e.Len = 1
		if len(parts) == 4 {
			if e.Len, err = strconv.Atoi(strings.TrimSpace(parts[3])); err != nil {
				return nil, fmt.Errorf("traffic: trace line %d: bad len: %w", lineNo, err)
			}
		}
		if e.Cycle < 0 || e.Src < 0 || e.Dst < 0 || e.Len < 1 {
			return nil, fmt.Errorf("traffic: trace line %d: negative field or zero length", lineNo)
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traffic: reading trace: %w", err)
	}
	return NewTrace(entries), nil
}

// WriteTo writes the trace in the LoadTrace format.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintln(w, "# cycle,src,dst,len")
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, e := range t.entries {
		n, err := fmt.Fprintf(w, "%d,%d,%d,%d\n", e.Cycle, e.Src, e.Dst, e.Len)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// GenerateTrace synthesizes a trace by sampling a pattern with
// Bernoulli injection — useful for building reproducible workload files
// and for tests of the replay path. rate is packets per cycle per
// source.
func GenerateTrace(rng *sim.RNG, k int, cycles int64, rate float64, pktLen int, p Pattern) *Trace {
	var entries []TraceEntry
	for c := int64(0); c < cycles; c++ {
		for s := 0; s < k; s++ {
			if rng.Bernoulli(rate) {
				entries = append(entries, TraceEntry{Cycle: c, Src: s, Dst: p.Dest(s, rng), Len: pktLen})
			}
		}
	}
	return NewTrace(entries)
}
