// Package shard runs a network simulation partitioned across P workers
// with results byte-identical to the serial run (network.Run) at every
// worker count.
//
// The synchronization is conservative and deterministic. Time advances
// in epochs of L = network.Lookahead(topo) cycles: the minimum latency
// of any cross-router effect (a flit lands HopDelay+1 cycles after its
// grant, a credit returns after CreditDelay). Every event produced
// during an epoch therefore takes effect at or after the next epoch's
// start, so workers can simulate a whole epoch without hearing from
// each other, then exchange at a single barrier. At the barrier the
// cross-shard mailboxes are merged in the canonical (cycle, source
// router, source port, VC, kind) order — a key proven unique because
// each router output sends at most one flit per cycle and each input
// buffer frees at most one slot per (cycle, VC) — so the merged event
// sequence, and with it every downstream allocation decision, is
// independent of worker count and scheduling.
//
// The run itself is internal/drive's, as it is for network.Run: the
// sharded network is a drive.World whose Cycle simulates an epoch on
// the workers when the driver reaches its first cycle, then replays
// each cycle's records, merged in the serial world's own order
// (injections by (cycle, source), deliveries by (cycle, destination)),
// into the driver's tally and the run's hooks. That makes not just the
// final numbers but the full observable event stream identical to a
// serial run. TestShardDeterminism pins this equivalence; DESIGN.md
// ("The driver", "Topologies & sharded synchronization") gives the
// legality argument.
package shard

import (
	"cmp"
	"slices"
	"sync"

	"highradix/internal/drive"
	"highradix/internal/flit"
	"highradix/internal/network"
	"highradix/internal/sim"
)

// Options parameterizes a sharded run: the serial options plus the
// worker count.
type Options struct {
	network.Options
	// Workers is the number of shards. 0 and 1 both mean one worker
	// (still running through the epoch machinery, which is how the
	// workers-1-equals-serial test earns its keep). Counts above the
	// router count leave the excess workers with empty shards.
	Workers int
}

// Test-only fault injections, exercised by the mutation-regression
// tests to prove the determinism suite actually detects the two classic
// ways a conservative-parallel simulator rots: an off-by-one in the
// synchronization window, and a merge order that depends on worker
// scheduling.
var (
	// testLookaheadSkew is added to the epoch length. +1 makes epochs one
	// cycle longer than the lookahead bound permits, so a cross-shard
	// event can be produced for a cycle the receiving worker has already
	// simulated; the late event is clamped to the next epoch, silently
	// delaying it — exactly the corruption the determinism suite must
	// catch (results still deterministic per worker count, but no longer
	// equal across worker counts).
	testLookaheadSkew int
	// testUnorderedMerge, when true, merges per-worker delivery records
	// in worker order instead of the canonical (cycle, destination)
	// order, modelling a mailbox merge that forgot to sort.
	testUnorderedMerge bool
)

// Partition splits routers [0, n) into p contiguous ranges whose sizes
// differ by at most one; when p > n the tail ranges are empty.
func Partition(n, p int) [][2]int {
	parts := make([][2]int, p)
	base, rem := n/p, n%p
	lo := 0
	for i := range parts {
		size := base
		if i < rem {
			size++
		}
		parts[i] = [2]int{lo, lo + size}
		lo += size
	}
	return parts
}

// delivRec is one delivered flit, recorded by the worker at delivery
// and replayed by the coordinator in canonical order. Unhooked runs
// copy the fields the statistics need and recycle the flit; hooked runs
// keep the pointer alive (the auditor reads only fields that are stable
// after ejection).
type delivRec struct {
	at        int64
	createdAt int64
	dst       int
	hops      int
	tail      bool
	measured  bool
	f         *flit.Flit
}

// injRec is one injected flit, recorded for hook replay.
type injRec struct {
	at  int64
	src int
	f   *flit.Flit
}

// worker owns one shard: the World (engine and source bank) of a
// contiguous router range. Workers run epochs concurrently and never
// touch each other's state; everything they produce for the
// coordinator lands in their own record slices.
type worker struct {
	*network.World
	cfg drive.Config // Audited: a hooked run, whose records keep their flits for the replay

	deliv []delivRec
	injs  []injRec
	// inflight and backlog snapshot the post-cycle state of every epoch
	// cycle, one slot per cycle of the longest epoch (frozen values
	// replicated across locally fast-forwarded stretches), so the
	// coordinator can reconstruct the global counters the driver's exit
	// checks and the EndCycle hook read.
	inflight []int
	backlog  []int64
}

// runEpoch simulates cycles [from, end), recording each cycle's
// deliveries instead of accounting them, and jumps across provably idle
// local stretches by the driver's own rule with the epoch's end as the
// bound.
func (w *worker) runEpoch(from, end int64) {
	w.deliv = w.deliv[:0]
	w.injs = w.injs[:0]
	now := from
	var onInject func(*flit.Flit)
	if w.cfg.Audited {
		onInject = func(f *flit.Flit) {
			w.injs = append(w.injs, injRec{at: now, src: f.Src, f: f})
		}
	}
	for now < end {
		for _, f := range w.Advance(now, w.cfg.At(now), onInject) {
			rec := delivRec{
				at: now, createdAt: f.CreatedAt, dst: f.Dst,
				hops: f.Hops, tail: f.Tail, measured: f.Measured,
			}
			if w.cfg.Audited {
				rec.f = f
			} else {
				w.Src.Recycle(f)
			}
			w.deliv = append(w.deliv, rec)
		}
		inflight, backlog := w.InFlight(), w.Backlog()
		for wake := w.cfg.Wake(w, now, end); now < wake; now++ {
			w.inflight[now-from] = inflight
			w.backlog[now-from] = backlog
		}
	}
}

// world is the sharded network as internal/drive sees it. The workers
// simulate a whole epoch ahead of the cycle the driver is at; Cycle
// then replays that cycle's records, merged into the serial world's
// own order, so the driver's accounting, exit checks and hooks see
// exactly what a serial run would have shown them.
type world struct {
	cfg      drive.Config
	hooks    network.Hooks
	workers  []*worker
	owner    []int // router -> worker
	epochLen int64

	// [from, end) is the simulated epoch; cur the cycle last replayed.
	from, end, cur int64
	xs             []network.Xmsg
	recs           []delivRec
	injs           []injRec
	ri, ii         int
}

func newWorld(o network.Options, topo network.Topology, c drive.Config, workers int) *world {
	parts := Partition(topo.Routers(), max(workers, 1))
	s := &world{
		cfg: c, hooks: o.Hooks,
		workers:  make([]*worker, len(parts)),
		owner:    make([]int, topo.Routers()),
		epochLen: max(int64(network.Lookahead(topo)+testLookaheadSkew), 1),
	}
	// The coordinator owns the hooks; workers record for its replay.
	o.Hooks = nil
	for i, rg := range parts {
		s.workers[i] = &worker{
			World: network.NewWorld(o, topo, rg[0], rg[1]), cfg: c,
			inflight: make([]int, s.epochLen), backlog: make([]int64, s.epochLen),
		}
		for r := rg[0]; r < rg[1]; r++ {
			s.owner[r] = i
		}
	}
	return s
}

// epoch simulates [from, from+epochLen) on the workers and prepares its
// replay.
func (s *world) epoch(from int64) {
	end := min(from+s.epochLen, s.cfg.Bound())
	var wg sync.WaitGroup
	wg.Add(len(s.workers))
	for _, w := range s.workers {
		go func(w *worker) {
			defer wg.Done()
			w.runEpoch(from, end)
		}(w)
	}
	wg.Wait()

	// Barrier: merge the cross-shard mailboxes in canonical order and
	// deliver each message to its destination's owner. Merge order is
	// observable (calendar insertion order within a cycle survives into
	// land/drain order), so this sort is what detaches the results from
	// worker count and goroutine scheduling.
	s.xs = s.xs[:0]
	for _, w := range s.workers {
		s.xs = append(s.xs, w.Net.TakeOutbox()...)
	}
	network.SortXmsgs(s.xs)
	for _, m := range s.xs {
		s.workers[s.owner[m.DstRouter]].Net.PutRemote(m)
	}

	// Merge the per-worker records into the serial world's accumulation
	// order: deliveries by (cycle, destination), injections by (cycle,
	// source).
	s.recs, s.injs = s.recs[:0], s.injs[:0]
	for _, w := range s.workers {
		s.recs = append(s.recs, w.deliv...)
		s.injs = append(s.injs, w.injs...)
	}
	if !testUnorderedMerge {
		slices.SortFunc(s.recs, func(a, b delivRec) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.dst, b.dst))
		})
	}
	slices.SortFunc(s.injs, func(a, b injRec) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src))
	})
	s.from, s.end, s.ri, s.ii = from, end, 0, 0
}

// Cycle implements drive.World: simulate the epoch now opens, if it has
// not been yet, then replay cycle now of it.
func (s *world) Cycle(now int64, _ drive.Phase, t *drive.Tally) error {
	if now >= s.end {
		s.epoch(now)
	}
	s.cur = now
	for ; s.ii < len(s.injs) && s.injs[s.ii].at == now; s.ii++ {
		s.hooks.Injected(now, s.injs[s.ii].f)
	}
	for ; s.ri < len(s.recs) && s.recs[s.ri].at == now; s.ri++ {
		rec := &s.recs[s.ri]
		t.Deliver(rec.createdAt, rec.hops, rec.tail, rec.measured)
		if s.hooks != nil {
			s.hooks.Delivered(now, rec.f)
		}
	}
	if s.hooks != nil {
		return s.hooks.EndCycle(now, s.InFlight())
	}
	return nil
}

// NextWake implements drive.Waker. Inside an epoch the next cycle is
// already simulated and must be replayed; at its edge the earliest
// event over the workers (read after the mailbox exchange, so remote
// arrivals count) says where the next epoch may start.
func (s *world) NextWake(now int64, live bool) int64 {
	if now+1 < s.end {
		return now + 1
	}
	wake := sim.NoWake
	for _, w := range s.workers {
		wake = min(wake, w.NextWake(now, live))
	}
	return wake
}

// sum adds f over the workers.
func (s *world) sum(f func(*worker) int64) (n int64) {
	for _, w := range s.workers {
		n += f(w)
	}
	return n
}

// Backlog and InFlight sum the workers' snapshots of the cycle last
// replayed.
func (s *world) Backlog() int64 {
	return s.sum(func(w *worker) int64 { return w.backlog[s.cur-s.from] })
}

func (s *world) InFlight() int {
	return int(s.sum(func(w *worker) int64 { return int64(w.inflight[s.cur-s.from]) }))
}

// GenFlits and InjectedLabeled sum the workers' counters as of the end
// of the simulated epoch, ahead of the cycle being replayed. The driver
// reads them only past the window, where both are final — generation
// stops there in audited runs and labeling always does — so they are
// exactly the values a serial run would have read.
func (s *world) GenFlits() int64 {
	return s.sum(func(w *worker) int64 { return w.Src.GenFlits() })
}

func (s *world) InjectedLabeled() int64 {
	return s.sum(func(w *worker) int64 { return w.Src.InjectedLabeled() })
}

// Run executes one network simulation across o.Workers shards and
// returns the byte-identical serial result. See the package comment for
// the synchronization scheme.
func Run(o Options) (network.Result, error) {
	return network.Drive(o.Options, func(no network.Options, topo network.Topology, c drive.Config) drive.World {
		return newWorld(no, topo, c, o.Workers)
	})
}
