package network

import (
	"sync"

	"highradix/internal/drive"
	"highradix/internal/flit"
	"highradix/internal/sim"
)

// The epoch runner: one network simulation partitioned across P
// workers with results byte-identical to the one-engine world at every
// worker count.
//
// The synchronization is conservative and deterministic. Time advances
// in epochs of L = Lookahead(topo) cycles: the minimum latency of any
// cross-router effect (a flit lands HopDelay+1 cycles after its
// grant, a credit returns after creditDelay). Every event produced
// during an epoch therefore takes effect at or after the next epoch's
// start, so workers can simulate a whole epoch without hearing from
// each other. Each worker is one goroutine for the whole run (the
// coordinator's own goroutine is worker 0), handed one task per epoch
// through a spin-then-park gate: first schedule the mail the previous
// epoch addressed to it, then simulate this one. The mail is
// double-buffered — an engine writes epoch e's into one set of outboxes
// while the others read epoch e-1's from the other set — and bucketed
// by receiving worker, so the handoff is the only synchronization per
// epoch and nobody reads mail that is not theirs. A worker's shard is a
// contiguous range of the routers and one of the terminals, whose
// sources it hosts wherever their entry routers are: in a Clos every
// entry router is in the first stage, so the sources would otherwise
// all load shard 0. A worker reads its mail in ascending worker order,
// every sender's injected flits before every sender's granted ones.
// That is the canonical order a serial run schedules a cycle's flits in
// — terminals ascending, then (router, output port) ascending — by
// construction: the ranges are contiguous in worker order, sources
// inject by ascending terminal and an engine grants by ascending router
// and port. So the event sequence each calendar sees, and with it every
// downstream allocation decision, is independent of worker count and
// scheduling without anything being sorted
// (TestOutboxCanonicalByConstruction).
//
// The run itself is internal/drive's, as it is for the one-engine
// world: the sharded network is a drive.World whose Cycle simulates an
// epoch on the workers when the driver reaches its first cycle, then
// replays each cycle's records, merged in the serial world's own order
// (injections by (cycle, source), deliveries by (cycle, destination)),
// into the driver's tally and the run's hooks. That makes not just the
// final numbers but the full observable event stream identical to a
// serial run. TestShardDeterminism pins this equivalence; DESIGN.md
// ("The driver", "Topologies & sharded synchronization") gives the
// legality argument.

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
// its source bank) of a contiguous router range and a contiguous range
// of terminals, whose sources it hosts. Workers run epochs
// concurrently and never touch each other's state; everything they
// produce for the coordinator lands in their own record slices, and
// everything for another worker in their own outboxes.
type worker struct {
	*World
	id   int
	cfg  drive.Config // Audited: a hooked run, whose records keep their flits for the replay
	home []int        // terminal -> the worker its sources live with

	deliv []delivRec
	injs  []injRec
	// in is scratch for inbox.
	in [][]Arrival
	// out[n&1][j] is the mail epoch n sends worker j, and spent[n&1][j]
	// the flits delivered here in it that worker j generated; j takes
	// both at the start of epoch n+1. Sinks and sources of one flow
	// rarely share a shard, so a flit recycled where it died would feed
	// a free list nobody draws from while its source allocates a fresh
	// one per packet.
	out   [2][]Outbox
	spent [2][][]*flit.Flit
	// inflight and backlog snapshot the post-cycle state of every epoch
	// cycle, one slot per cycle of the longest epoch (frozen values
	// replicated across locally fast-forwarded stretches), so the
	// coordinator can reconstruct the global counters the driver's exit
	// checks and the EndCycle hook read.
	inflight []int
	backlog  []int64

	// start carries the coordinator's handoffs, done the worker's
	// replies.
	start, done drive.Gate
}

// sharded is the sharded network as internal/drive sees it. The workers
// simulate a whole epoch ahead of the cycle the driver is at; Cycle
// then replays that cycle's records, merged into the serial world's
// own order, so the driver's accounting, exit checks and hooks see
// exactly what a serial run would have shown them.
type sharded struct {
	cfg      drive.Config
	hooks    Hooks
	workers  []*worker
	epochLen int64
	wg       sync.WaitGroup

	// n counts the handoffs: the first builds the shards, the n-th
	// simulates epoch n, [from, end). quit, set with the last, tells the
	// workers to exit instead.
	n    int64
	quit bool

	// cur is the cycle last replayed.
	from, end, cur int64
	recs           []delivRec
	injs           []injRec
	ri, ii         int
	// Scratch for merge: the workers' record streams.
	recSrc [][]delivRec
	injSrc [][]injRec
	// build constructs a worker's shard: the task of the first handoff.
	build func(w *worker)
	// release returns the workers' claim on the CPU budget.
	release func()
}

// start builds the p shards of a run and starts their workers, which
// run until stop. o is defaulted; c is the driver configuration. The
// coordinator is drive.Run's goroutine, which counts itself; release
// returns the other workers' claim on the CPU budget, which they hold
// until stop.
func (s *sharded) start(o Options, topo Topology, c drive.Config, p int, release func()) {
	l := Layout{Routers: Partition(topo.Routers(), p), Terminals: Partition(topo.Terminals(), p)}
	s.cfg, s.hooks, s.release = c, o.Hooks, release
	s.epochLen = max(int64(Lookahead(topo)+testLookaheadSkew), 1)
	s.workers = make([]*worker, p)
	home := make([]int, topo.Terminals())
	for i := range s.workers {
		w := &worker{
			id: i, cfg: c, home: home,
			inflight: make([]int, s.epochLen), backlog: make([]int64, s.epochLen),
		}
		w.start.Init()
		w.done.Init()
		for e := range w.out {
			w.out[e] = make([]Outbox, p)
			w.spent[e] = make([][]*flit.Flit, p)
		}
		for t := l.Terminals[i][0]; t < l.Terminals[i][1]; t++ {
			home[t] = i
		}
		s.workers[i] = w
	}
	// The coordinator owns the hooks; workers record for its replay.
	o.Hooks = nil
	s.build = func(w *worker) {
		w.World = NewWorld(o, topo, l, w.id)
		if c.Audited {
			w.OnInject = func(now int64, f *flit.Flit) {
				w.injs = append(w.injs, injRec{at: now, src: f.Src, f: f})
			}
		}
	}
	s.wg.Add(len(s.workers) - 1)
	for _, w := range s.workers[1:] {
		go s.serve(w)
	}
	s.handoff()
}

// stop makes the workers exit and returns once they have. Safe on a
// world never started, and whatever the handoff in progress.
func (s *sharded) stop() {
	if len(s.workers) == 0 {
		return
	}
	s.quit = true
	s.n++
	for _, w := range s.workers[1:] {
		w.start.Post(s.n)
	}
	s.wg.Wait()
	s.release()
}

// serve is the loop of worker w's goroutine: wait for a handoff, do it,
// reply, until told to quit.
func (s *sharded) serve(w *worker) {
	defer s.wg.Done()
	for n := int64(1); ; n++ {
		w.start.Wait(n)
		if s.quit {
			return
		}
		s.do(w)
		w.done.Post(n)
	}
}

// handoff has every worker do the next task — the coordinator's own
// goroutine does worker 0's — and returns when all have.
func (s *sharded) handoff() {
	s.n++
	for _, w := range s.workers[1:] {
		w.start.Post(s.n)
	}
	s.do(s.workers[0])
	for _, w := range s.workers[1:] {
		w.done.Wait(s.n)
	}
}

// do is worker w's part of handoff n: building its shard for the first,
// epoch n after it.
func (s *sharded) do(w *worker) {
	if s.n == 1 {
		s.build(w)
		return
	}
	s.runEpoch(w)
}

// inbox lists the flits epoch e mailed worker w in the order w takes
// them: every sender's injected flits, then every sender's granted ones,
// the senders in ascending worker order (the canonical order; see the
// package comment).
func (s *sharded) inbox(w *worker, e int64) [][]Arrival {
	w.in = w.in[:0]
	for _, o := range s.workers {
		w.in = append(w.in, o.out[e&1][w.id].Injected)
	}
	for _, o := range s.workers {
		w.in = append(w.in, o.out[e&1][w.id].Flits)
	}
	return w.in
}

// runEpoch takes the mail and spent flits the previous epoch addressed
// to w, then simulates cycles [from, end): it records each cycle's
// deliveries instead of accounting them, and jumps across provably idle
// local stretches by the driver's own rule with the epoch's end as the
// bound.
func (s *sharded) runEpoch(w *worker) {
	prev, cur := (s.n-1)&1, s.n&1
	for _, as := range s.inbox(w, s.n-1) {
		w.Net.PutFlits(as, s.from)
	}
	for _, o := range s.workers {
		w.Net.PutCredits(o.out[prev][w.id].Credits, s.from)
		for _, f := range o.spent[prev][w.id] {
			w.Recycle(f)
		}
	}
	w.Net.SetOutbox(w.out[cur])
	spent := w.spent[cur]
	for i := range spent {
		spent[i] = spent[i][:0]
	}
	w.deliv, w.injs = w.deliv[:0], w.injs[:0]
	for now := s.from; now < s.end; {
		for _, f := range w.Advance(now, w.cfg.At(now)) {
			rec := delivRec{
				at: now, createdAt: f.CreatedAt, dst: f.Dst,
				hops: f.Hops, tail: f.Tail, measured: f.Measured,
			}
			if w.cfg.Audited {
				rec.f = f
			} else {
				h := w.home[f.Src]
				spent[h] = append(spent[h], f)
			}
			w.deliv = append(w.deliv, rec)
		}
		inflight, backlog := w.InFlight(), w.Backlog()
		for wake := w.cfg.Wake(w, now, s.end); now < wake; now++ {
			w.inflight[now-s.from] = inflight
			w.backlog[now-s.from] = backlog
		}
	}
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

// epoch simulates [from, from+epochLen) on the workers and prepares the
// epoch's replay.
func (s *sharded) epoch(from int64) {
	s.from, s.end = from, min(from+s.epochLen, s.cfg.Bound())
	s.handoff()

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
	s.ri, s.ii = 0, 0
}

// Cycle implements drive.World: simulate the epoch now opens, if it has
// not been yet, then replay cycle now of it.
func (s *sharded) Cycle(now int64, _ drive.Phase, t *drive.Tally) error {
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
// event over the workers says where the next epoch may start — the
// engines' own, and the mail the epoch sent, which the receivers take
// only when the next epoch starts.
func (s *sharded) NextWake(now int64, live bool) int64 {
	if now+1 < s.end {
		return now + 1
	}
	wake := sim.NoWake
	for _, w := range s.workers {
		wake = min(wake, w.NextWake(now, live), w.Net.MailAt())
	}
	return wake
}

// sum adds f over the workers.
func (s *sharded) sum(f func(*worker) int64) (n int64) {
	for _, w := range s.workers {
		n += f(w)
	}
	return n
}

// Backlog and InFlight sum the workers' snapshots of the cycle last
// replayed.
func (s *sharded) Backlog() int64 {
	return s.sum(func(w *worker) int64 { return w.backlog[s.cur-s.from] })
}

func (s *sharded) InFlight() int {
	return int(s.sum(func(w *worker) int64 { return int64(w.inflight[s.cur-s.from]) }))
}

// GenFlits and InjectedLabeled sum the workers' counters as of the end
// of the simulated epoch, ahead of the cycle being replayed. The driver
// reads them only past the window, where both are final — generation
// stops there in audited runs and labeling always does — so they are
// exactly the values a serial run would have read.
func (s *sharded) GenFlits() int64        { return s.sum((*worker).GenFlits) }
func (s *sharded) InjectedLabeled() int64 { return s.sum((*worker).InjectedLabeled) }

// Exchange is the epoch runner stepped one epoch at a time, with the
// mail each epoch sent readable until the next: the state tests of the
// exchange's order read, from the runner itself rather than a
// restatement of it. It claims no CPU; nothing but tests steps one.
type Exchange struct{ s sharded }

// NewExchange builds the p shards of a run of o (defaulted) under c and
// starts their workers, which run until Stop.
func NewExchange(o Options, topo Topology, c drive.Config, p int) *Exchange {
	x := &Exchange{}
	x.s.start(o, topo, c, p, func() {})
	return x
}

// Stop makes the workers exit.
func (x *Exchange) Stop() { x.s.stop() }

// Epoch simulates the epoch that opens at from on every worker and
// returns its end.
func (x *Exchange) Epoch(from int64) int64 {
	x.s.epoch(from)
	return x.s.end
}

// Net is worker j's engine.
func (x *Exchange) Net(j int) *Network { return x.s.workers[j].Net }

// Home is the worker that hosts terminal t's sources.
func (x *Exchange) Home(t int) int { return x.s.workers[0].home[t] }

// Flits lists the flits the last epoch mailed worker j, in the order j
// takes them in the next.
func (x *Exchange) Flits(j int) [][]Arrival { return x.s.inbox(x.s.workers[j], x.s.n) }

// Credits lists the credits the last epoch mailed worker j, one list
// per sender, in the order j takes them in the next.
func (x *Exchange) Credits(j int) (in [][]CreditMail) {
	for _, o := range x.s.workers {
		in = append(in, o.out[x.s.n&1][j].Credits)
	}
	return in
}
