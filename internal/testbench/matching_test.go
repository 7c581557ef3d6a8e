package testbench

import (
	"fmt"
	"testing"

	"highradix/internal/router"
)

// Allocation efficiency against the maximum matching, the measure by
// which Tiny Tera judges iSLIP: each cycle, how many first-stage grants
// a router's allocator made, against the largest conflict-free set of
// (input, output) pairs it could have granted. The observer below
// rebuilds what the allocator sees from the event stream alone, and
// the bound ignores VC allocation, so it is an upper bound: a cycle
// with more grants than the matching means a grant the observer's
// state could not explain.

// fkey names a flit across its events; the router recycles the
// *flit.Flit itself once it ejects.
type fkey struct {
	pkt uint64
	seq int
}

// queued is one buffered flit as the observer tracks it.
type queued struct {
	fkey
	dst int
}

// matchObserver rebuilds each input's queues from EvAccept (a flit
// joins input VC queue c), the VOQ router's credit spends (the VC
// head moves to the VOQ of its output) and first-stage EvGrant (the
// flit leaves). The requests of a cycle are the destinations of the
// heads of the queues the switch allocator reads — VOQs when the
// router has them, input VCs otherwise — at inputs and outputs whose
// last grant's STCycles-long traversal has ended.
type matchObserver struct {
	t         *testing.T
	k, v, st  int
	voq       bool
	from, end int64 // the measurement window [from, end)

	queues  [][][]queued // [input][VC c, or v+o for VOQ o]
	where   map[fkey][2]int
	inFree  []int64 // first cycle each port can be granted again
	outFree []int64

	cur     int64 // the cycle whose matching is current
	match   int   // maximum matching of cycle cur
	granted int   // first-stage grants in cycle cur

	grants, bound int // summed over the window
}

func newMatchObserver(t *testing.T, cfg router.Config, warmup, measure int64) *matchObserver {
	cfg = cfg.WithDefaults()
	k, v := cfg.Radix, cfg.VCs
	m := &matchObserver{
		t: t, k: k, v: v, st: cfg.STCycles, voq: cfg.Arch == router.ArchVOQ,
		from: warmup, end: warmup + measure,
		queues:  make([][][]queued, k),
		where:   map[fkey][2]int{},
		inFree:  make([]int64, k),
		outFree: make([]int64, k),
		cur:     -1,
	}
	for i := range m.queues {
		m.queues[i] = make([][]queued, v+k)
	}
	return m
}

func (m *matchObserver) Observe(e router.Event) {
	m.advance(e.Cycle)
	switch e.Kind {
	case router.EvAccept:
		f := e.Flit
		m.push(e.Input, e.VC, queued{fkey{f.PacketID, f.Seq}, f.Dst})
	case router.EvCredit:
		if e.Note == "voq" && e.Delta < 0 {
			q := m.pop(e.Input, e.VC)
			if q.dst != e.Output {
				m.t.Fatalf("cycle %d: VOQ %d->%d filled from VC %d, whose head is bound for %d", e.Cycle, e.Input, e.Output, e.VC, q.dst)
			}
			m.push(e.Input, m.v+e.Output, q)
		}
	case router.EvGrant:
		i, o := e.Input, e.Output
		if m.cur >= m.from && m.cur < m.end {
			m.granted++
			if m.granted > m.match {
				m.t.Fatalf("cycle %d: %d grants, maximum matching %d", e.Cycle, m.granted, m.match)
			}
		}
		m.inFree[i] = e.Cycle + int64(m.st)
		m.outFree[o] = e.Cycle + int64(m.st)
		if e.Flit != nil {
			m.leave(fkey{e.Flit.PacketID, e.Flit.Seq}, e.Cycle)
			return
		}
		// The baseline's grant names only its (input, output) pair. With
		// one VC head bound there the flit is known; with several, the
		// flit leaves when its ejection names it.
		c := -1
		for vc, q := range m.queues[i][:m.v] {
			if len(q) > 0 && q[0].dst == o {
				if c >= 0 {
					return
				}
				c = vc
			}
		}
		if c < 0 {
			m.t.Fatalf("cycle %d: grant %d->%d, but no VC head at input %d is bound there", e.Cycle, i, o, i)
		}
		m.pop(i, c)
	case router.EvEject:
		if _, ok := m.where[fkey{e.Flit.PacketID, e.Flit.Seq}]; ok {
			m.leave(fkey{e.Flit.PacketID, e.Flit.Seq}, e.Cycle)
		}
	}
}

func (m *matchObserver) push(i, q int, f queued) {
	m.queues[i][q] = append(m.queues[i][q], f)
	m.where[f.fkey] = [2]int{i, q}
}

func (m *matchObserver) pop(i, q int) queued {
	f := m.queues[i][q][0]
	m.queues[i][q] = m.queues[i][q][1:]
	delete(m.where, f.fkey)
	return f
}

// leave removes a named flit, which must be at the head of its queue:
// a queue is a FIFO, so anything else means the rebuilt state is wrong.
func (m *matchObserver) leave(key fkey, now int64) {
	at, ok := m.where[key]
	if !ok {
		m.t.Fatalf("cycle %d: packet %d flit %d left without being queued", now, key.pkt, key.seq)
	}
	if h := m.queues[at[0]][at[1]][0]; h.fkey != key {
		m.t.Fatalf("cycle %d: packet %d flit %d left queue %v from behind packet %d", now, key.pkt, key.seq, at, h.pkt)
	}
	m.pop(at[0], at[1])
}

// advance closes every cycle before now. No event arrived in between,
// so the queues stood as they are; only the ports' traversals ended.
func (m *matchObserver) advance(now int64) {
	for m.cur < now {
		if m.cur >= m.from && m.cur < m.end {
			m.grants += m.granted
			m.bound += m.match
		}
		m.cur++
		m.granted = 0
		m.match = 0
		if m.cur >= m.from && m.cur < m.end {
			m.match = maxMatching(m.k, m.requests(m.cur))
		}
	}
}

// requests lists, per input free at now, the free outputs its queue
// heads are bound for.
func (m *matchObserver) requests(now int64) [][]int {
	adj := make([][]int, m.k)
	lo, hi := 0, m.v
	if m.voq {
		lo, hi = m.v, m.v+m.k
	}
	for i := range adj {
		if m.inFree[i] > now {
			continue
		}
		for _, q := range m.queues[i][lo:hi] {
			if len(q) == 0 || m.outFree[q[0].dst] > now {
				continue
			}
			dup := false
			for _, o := range adj[i] {
				dup = dup || o == q[0].dst
			}
			if !dup {
				adj[i] = append(adj[i], q[0].dst)
			}
		}
	}
	return adj
}

// maxMatching is Hopcroft–Karp over inputs 0..len(adj)-1 and outputs
// 0..outs-1: breadth-first layering from the free inputs, then
// vertex-disjoint shortest augmenting paths by depth-first search,
// until no augmenting path is left.
func maxMatching(outs int, adj [][]int) int {
	const inf = int(^uint(0) >> 1)
	matchIn := make([]int, len(adj))
	matchOut := make([]int, outs)
	for i := range matchIn {
		matchIn[i] = -1
	}
	for o := range matchOut {
		matchOut[o] = -1
	}
	dist := make([]int, len(adj))
	bfs := func() bool {
		var queue []int
		for i := range adj {
			dist[i] = inf
			if matchIn[i] < 0 {
				dist[i] = 0
				queue = append(queue, i)
			}
		}
		found := false
		for len(queue) > 0 {
			i := queue[0]
			queue = queue[1:]
			for _, o := range adj[i] {
				j := matchOut[o]
				if j < 0 {
					found = true
				} else if dist[j] == inf {
					dist[j] = dist[i] + 1
					queue = append(queue, j)
				}
			}
		}
		return found
	}
	var dfs func(i int) bool
	dfs = func(i int) bool {
		for _, o := range adj[i] {
			j := matchOut[o]
			if j < 0 || dist[j] == dist[i]+1 && dfs(j) {
				matchIn[i], matchOut[o] = o, i
				return true
			}
		}
		dist[i] = inf
		return false
	}
	size := 0
	for bfs() {
		for i := range adj {
			if matchIn[i] < 0 && dfs(i) {
				size++
			}
		}
	}
	return size
}

func TestMaxMatching(t *testing.T) {
	for _, c := range []struct {
		adj  [][]int
		want int
	}{
		{[][]int{{0}, {0}, {0}}, 1},
		// A greedy pick of 0->0 first needs an augmenting path to reach 3.
		{[][]int{{0, 1}, {0}, {1, 2}, {2}}, 3},
		{[][]int{{0, 1, 2}, {0}, {1}, {}}, 3},
		{[][]int{{}, {}}, 0},
	} {
		if got := maxMatching(3, c.adj); got != c.want {
			t.Errorf("maxMatching(%v) = %d, want %d", c.adj, got, c.want)
		}
	}
}

// TestAllocationEfficiency measures every input-queued allocator at
// radix 64 against the maximum matching (EXPERIMENTS.md, Known deltas).
func TestAllocationEfficiency(t *testing.T) {
	const warmup, measure = 300, 1000
	rows := []struct {
		name string
		cfg  router.Config
	}{
		{"lowradix", router.Config{Arch: router.ArchLowRadix}},
		{"lowradix-4iter", router.Config{Arch: router.ArchLowRadix, AllocIters: 4}},
		{"baseline-cva", router.Config{Arch: router.ArchBaseline, VA: router.CVA}},
		{"baseline-ova", router.Config{Arch: router.ArchBaseline, VA: router.OVA}},
		{"dynvc", router.Config{Arch: router.ArchDynVC}},
		{"voq-1iter", router.Config{Arch: router.ArchVOQ, AllocIters: 1}},
		{"voq-3iter", router.Config{Arch: router.ArchVOQ, AllocIters: 3}},
	}
	eff := map[string]float64{}
	for _, row := range rows {
		for _, load := range []float64{0.5, 1.0} {
			cfg := row.cfg
			cfg.Radix = 64
			m := newMatchObserver(t, cfg, warmup, measure)
			cfg.Observer = m
			res, err := Run(Options{Router: cfg, Load: load, WarmupCycles: warmup, MeasureCycles: measure, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			m.advance(warmup + measure)
			if m.grants == 0 || m.bound == 0 {
				t.Fatalf("%s at load %.1f: %d grants against a matching of %d; the row is vacuous", row.name, load, m.grants, m.bound)
			}
			e := float64(m.grants) / float64(m.bound)
			eff[fmt.Sprintf("%s/%.1f", row.name, load)] = e
			t.Logf("%-15s load %.1f: efficiency %.3f (%d grants / %d), throughput %.3f", row.name, load, e, m.grants, m.bound, res.Throughput)
		}
	}
	if one, four := eff["lowradix/1.0"], eff["lowradix-4iter/1.0"]; one >= four {
		t.Errorf("at saturation 1 allocation iteration (%.3f) matched as well as 4 (%.3f)", one, four)
	}
}
