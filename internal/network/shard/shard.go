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
// each other, then exchange at a barrier. The exchange is itself
// parallel: each worker pulls the events addressed to its routers out
// of the other workers' outboxes, walking them in ascending worker
// order. That order is the canonical (cycle, source router, source
// port) order by construction — shards are contiguous router ranges in
// worker order, and an engine emits one cycle's flits by ascending
// router and output port — so the event sequence each calendar sees,
// and with it every downstream allocation decision, is independent of
// worker count and scheduling without anything being sorted
// (TestOutboxCanonicalByConstruction).
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
	// testUnorderedMerge, when true, concatenates per-worker delivery
	// records in worker order instead of merging them into the canonical
	// (cycle, destination) order, modelling a merge that forgot to compare.
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
// copy the fields the statistics need and send the flit home (spent);
// hooked runs keep the pointer alive (the auditor reads only fields
// that are stable after ejection).
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

// worker owns one shard: the World (the drive.Plant of an engine and
// its source bank) of a contiguous router range. Workers run epochs
// concurrently and never touch each other's state; everything they
// produce for the coordinator lands in their own record slices.
type worker struct {
	*network.World
	cfg  drive.Config // Audited: a hooked run, whose records keep their flits for the replay
	home []int        // terminal -> the worker its sources live with

	deliv []delivRec
	injs  []injRec
	// mail is the epoch's outbox, left for the other workers to pull.
	mail []network.Xmsg
	// spent[i] lists the flits delivered here this epoch that worker i
	// generated. Sinks and sources of one flow rarely share a shard (in a
	// Clos never), so a flit recycled where it died would feed a free list
	// nobody draws from while its source allocates a fresh one per packet.
	spent [][]*flit.Flit
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
	for i := range w.spent {
		w.spent[i] = w.spent[i][:0]
	}
	for now := from; now < end; {
		for _, f := range w.Advance(now, w.cfg.At(now)) {
			rec := delivRec{
				at: now, createdAt: f.CreatedAt, dst: f.Dst,
				hops: f.Hops, tail: f.Tail, measured: f.Measured,
			}
			if w.cfg.Audited {
				rec.f = f
			} else {
				h := w.home[f.Src]
				w.spent[h] = append(w.spent[h], f)
			}
			w.deliv = append(w.deliv, rec)
		}
		inflight, backlog := w.InFlight(), w.Backlog()
		for wake := w.cfg.Wake(w, now, end); now < wake; now++ {
			w.inflight[now-from] = inflight
			w.backlog[now-from] = backlog
		}
	}
	w.mail = w.Net.TakeOutbox()
}

// pull completes the epoch for worker i, concurrently with the other
// workers' pulls: it schedules the events the epoch sent to its routers,
// reading the outboxes in ascending worker order (the canonical order;
// see the package comment), and takes back its terminals' spent flits.
func (w *worker) pull(i int, all []*worker) {
	for _, o := range all {
		w.Net.PutRemote(o.mail)
		for _, f := range o.spent[i] {
			w.Recycle(f)
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
	epochLen int64

	// [from, end) is the simulated epoch; cur the cycle last replayed.
	from, end, cur int64
	recs           []delivRec
	injs           []injRec
	ri, ii         int
	// Scratch for merge: the workers' record streams.
	recSrc [][]delivRec
	injSrc [][]injRec
}

func newWorld(o network.Options, topo network.Topology, c drive.Config, workers int) *world {
	parts := Partition(topo.Routers(), max(workers, 1))
	s := &world{
		cfg: c, hooks: o.Hooks,
		workers:  make([]*worker, len(parts)),
		epochLen: max(int64(network.Lookahead(topo)+testLookaheadSkew), 1),
	}
	// The coordinator owns the hooks; workers record for its replay.
	o.Hooks = nil
	home := make([]int, topo.Terminals())
	for i := range s.workers {
		s.workers[i] = &worker{
			cfg: c, home: home, spent: make([][]*flit.Flit, len(parts)),
			inflight: make([]int, s.epochLen), backlog: make([]int64, s.epochLen),
		}
	}
	s.each(func(i int, w *worker) {
		w.World = network.NewWorld(o, topo, parts[i][0], parts[i][1])
		if c.Audited {
			w.OnInject = func(now int64, f *flit.Flit) {
				w.injs = append(w.injs, injRec{at: now, src: f.Src, f: f})
			}
		}
	})
	for t := range home {
		er, _ := topo.Entry(t)
		home[t] = slices.IndexFunc(s.workers, func(w *worker) bool { return w.Net.Owns(er) })
	}
	return s
}

// each runs f once per worker, concurrently, and returns when all have
// finished. The caller's goroutine takes the first worker itself: it
// starts at once, the others a thread wake-up later, and in a Clos the
// first shard (every source) is the slowest.
func (s *world) each(f func(i int, w *worker)) {
	var wg sync.WaitGroup
	wg.Add(len(s.workers) - 1)
	for i, w := range s.workers[1:] {
		go func() {
			defer wg.Done()
			f(i+1, w)
		}()
	}
	f(0, s.workers[0])
	wg.Wait()
}

// merge appends the streams, each already in less order, to dst in less
// order; equal heads go lowest stream first.
func merge[T any](dst []T, streams [][]T, less func(a, b *T) bool) []T {
	for {
		best, live := -1, 0
		for i, st := range streams {
			if len(st) == 0 {
				continue
			}
			if live++; best < 0 || less(&st[0], &streams[best][0]) {
				best = i
			}
		}
		if live == 0 {
			return dst
		}
		if live == 1 { // the last stream (in a Clos the only one: the sinks' shard) needs no compares
			return append(dst, streams[best]...)
		}
		dst = append(dst, streams[best][0])
		streams[best] = streams[best][1:]
	}
}

// epoch simulates [from, from+epochLen) on the workers, exchanges what
// they sent each other, and prepares the epoch's replay.
func (s *world) epoch(from int64) {
	end := min(from+s.epochLen, s.cfg.Bound())
	s.each(func(_ int, w *worker) { w.runEpoch(from, end) })
	s.each(func(i int, w *worker) { w.pull(i, s.workers) })

	// Merge the per-worker records into the serial world's accumulation
	// order: deliveries by (cycle, destination), injections by (cycle,
	// source). Each worker's are already in that order.
	s.recSrc, s.injSrc = s.recSrc[:0], s.injSrc[:0]
	for _, w := range s.workers {
		s.recSrc = append(s.recSrc, w.deliv)
		s.injSrc = append(s.injSrc, w.injs)
	}
	s.recs = merge(s.recs[:0], s.recSrc, func(a, b *delivRec) bool {
		return !testUnorderedMerge && (a.at < b.at || a.at == b.at && a.dst < b.dst)
	})
	s.injs = merge(s.injs[:0], s.injSrc, func(a, b *injRec) bool {
		return a.at < b.at || a.at == b.at && a.src < b.src
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
func (s *world) GenFlits() int64        { return s.sum((*worker).GenFlits) }
func (s *world) InjectedLabeled() int64 { return s.sum((*worker).InjectedLabeled) }

// Run executes one network simulation across o.Workers shards and
// returns the byte-identical serial result. See the package comment for
// the synchronization scheme.
func Run(o Options) (network.Result, error) {
	return network.Drive(o.Options, func(no network.Options, topo network.Topology, c drive.Config) drive.World {
		return newWorld(no, topo, c, o.Workers)
	})
}
