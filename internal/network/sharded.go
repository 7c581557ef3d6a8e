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
// all load shard 0. A worker takes each sender's flits and credits in
// whatever order it reads them, and none is needed: each input queue is
// fed by one channel, which carries at most one flit per cycle, so a
// cycle's arrivals land the same in any order, and credits are counter
// increments, which commute. So every allocation decision is
// independent of worker count and scheduling without anything being
// ordered (TestArrivalOrderImmaterial).
//
// The run itself is internal/drive's, as it is for the one-engine
// world: the sharded network is a drive.World whose Cycle simulates an
// epoch on the workers when the driver reaches its first cycle, then
// replays each cycle's records into the driver's tally and the run's
// hooks, worker by worker in index order. That is the serial world's own
// order — injections by (cycle, source), deliveries by (cycle,
// destination) — by construction: each worker's sources are a
// contiguous terminal range and inject in ascending order, its routers
// are a contiguous range whose ejections number terminals in (router,
// port) order (NewNetworkRange refuses any other topology), and worker
// i's ranges all precede worker i+1's. That makes not just the final
// numbers but the full observable event stream identical to a serial
// run. TestShardDeterminism pins this equivalence; DESIGN.md
// ("The driver", "Topologies & sharded synchronization") gives the
// legality argument.

// Test-only fault injections, exercised by the mutation-regression
// tests to prove the determinism suite actually detects the two classic
// ways a conservative-parallel simulator rots: an off-by-one in the
// synchronization window, and a replay out of the serial world's order.
var (
	// testLookaheadSkew is added to the epoch length. +1 makes epochs one
	// cycle longer than the lookahead bound permits, so a cross-shard
	// event can be produced for a cycle the receiving worker has already
	// simulated; the late event is clamped to the next epoch, silently
	// delaying it — exactly the corruption the determinism suite must
	// catch (results still deterministic per worker count, but no longer
	// equal across worker counts).
	testLookaheadSkew int
	// testReverseReplay, when true, replays each cycle's records walking
	// the workers from last to first, modelling a replay that forgot the
	// order its workers' terminal ranges put the records in.
	testReverseReplay bool
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
// and replayed by the coordinator in the serial world's order. Unhooked runs
// copy the fields the statistics need and send the flit home (spent);
// hooked runs keep the pointer alive (the auditor reads only fields
// that are stable after ejection).
type delivRec struct {
	at        int64
	createdAt int64
	hops      int
	tail      bool
	measured  bool
	f         *flit.Flit
}

// injRec is one injected flit, recorded for hook replay.
type injRec struct {
	at int64
	f  *flit.Flit
}

// worker owns one shard: the World (the drive.Plant of an engine and
// its source bank) of a contiguous router range and a contiguous range
// of terminals, whose sources it hosts. Workers run epochs
// concurrently and never touch each other's state; everything they
// produce for the coordinator lands in their own record slices, each in
// the serial world's order already, and everything for another worker
// in their own outboxes.
type worker struct {
	*World
	id   int
	cfg  drive.Config // Audited: a hooked run, whose records keep their flits for the replay
	home []int        // terminal -> the worker its sources live with

	deliv []delivRec
	injs  []injRec
	// di and ii are the replay's cursors into deliv and injs.
	di, ii int
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
// then replays that cycle's records worker by worker, so the driver's
// accounting, exit checks and hooks see exactly what a serial run would
// have shown them.
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
				w.injs = append(w.injs, injRec{at: now, f: f})
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

// runEpoch takes the mail and spent flits the previous epoch addressed
// to w, then simulates cycles [from, end): it records each cycle's
// deliveries instead of accounting them, and jumps across provably idle
// local stretches by the driver's own rule with the epoch's end as the
// bound.
func (s *sharded) runEpoch(w *worker) {
	prev, cur := (s.n-1)&1, s.n&1
	for _, o := range s.workers {
		mail := &o.out[prev][w.id]
		w.Net.PutFlits(mail.Flits, s.from)
		w.Net.PutCredits(mail.Credits, s.from)
		for _, f := range o.spent[prev][w.id] {
			w.Recycle(f)
		}
	}
	w.Net.SetOutbox(w.out[cur])
	spent := w.spent[cur]
	for i := range spent {
		spent[i] = spent[i][:0]
	}
	w.deliv, w.injs, w.di, w.ii = w.deliv[:0], w.injs[:0], 0, 0
	for now := s.from; now < s.end; {
		for _, f := range w.Advance(now, w.cfg.At(now)) {
			rec := delivRec{
				at: now, createdAt: f.CreatedAt, hops: f.Hops,
				tail: f.Tail, measured: f.Measured,
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

// Cycle implements drive.World: simulate the epoch now opens, if it has
// not been yet, then replay cycle now of it — injections, then
// deliveries, each walking the workers in index order.
func (s *sharded) Cycle(now int64, _ drive.Phase, t *drive.Tally) error {
	if now >= s.end {
		s.from, s.end = now, min(now+s.epochLen, s.cfg.Bound())
		s.handoff()
	}
	s.cur = now
	for i := range s.workers {
		w := s.replayed(i)
		for ; w.ii < len(w.injs) && w.injs[w.ii].at == now; w.ii++ {
			s.hooks.Injected(now, w.injs[w.ii].f)
		}
	}
	for i := range s.workers {
		w := s.replayed(i)
		for ; w.di < len(w.deliv) && w.deliv[w.di].at == now; w.di++ {
			rec := &w.deliv[w.di]
			t.Deliver(rec.createdAt, rec.hops, rec.tail, rec.measured)
			if s.hooks != nil {
				s.hooks.Delivered(now, rec.f)
			}
		}
	}
	if s.hooks != nil {
		return s.hooks.EndCycle(now, s.InFlight())
	}
	return nil
}

// replayed is the i-th worker the replay visits: worker i.
func (s *sharded) replayed(i int) *worker {
	if testReverseReplay {
		i = len(s.workers) - 1 - i
	}
	return s.workers[i]
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
