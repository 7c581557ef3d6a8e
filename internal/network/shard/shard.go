// Package shard runs a network simulation partitioned across P workers
// with results byte-identical to the serial driver (network.Run) at
// every worker count.
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
// Statistics and hooks are replayed by the coordinator from per-worker
// records merged in the serial driver's own order (deliveries by
// (cycle, destination), injections by (cycle, source)), which makes not
// just the final numbers but the full observable event stream identical
// to a serial run. TestShardDeterminism pins this equivalence;
// DESIGN.md ("Sharded synchronization") gives the legality argument.
package shard

import (
	"cmp"
	"slices"
	"sync"

	"highradix/internal/flit"
	"highradix/internal/network"
	"highradix/internal/sim"
	"highradix/internal/stats"
	"highradix/internal/traffic"
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

// worker owns one shard: an engine over a contiguous router range and
// the source bank of the terminals entering it. Workers run epochs
// concurrently and never touch each other's state; everything they
// produce for the coordinator lands in their own record slices.
type worker struct {
	eng *network.Network
	src *network.Sources

	hooked, gap, ff    bool
	measStart, measEnd int64

	deliv []delivRec
	injs  []injRec
	// inflight and backlog snapshot the post-cycle state of every epoch
	// cycle (frozen values replicated across locally fast-forwarded
	// stretches), so the coordinator can reconstruct the global counters
	// the serial driver's per-cycle exit checks and EndCycle hook read.
	inflight []int
	backlog  []int64
}

// runEpoch simulates cycles [from, end), mirroring the serial driver's
// per-cycle structure exactly: generate, inject, step-unless-quiescent,
// record deliveries, then fast-forward across provably idle local
// stretches (never past the epoch boundary, and only where the serial
// driver could jump too: no cycle that draws generation randomness is
// ever skipped).
func (w *worker) runEpoch(from, end int64) {
	w.deliv = w.deliv[:0]
	w.injs = w.injs[:0]
	span := int(end - from)
	if cap(w.inflight) < span {
		w.inflight = make([]int, span)
		w.backlog = make([]int64, span)
	}
	w.inflight = w.inflight[:span]
	w.backlog = w.backlog[:span]

	var now int64
	onInject := func(f *flit.Flit) {
		w.injs = append(w.injs, injRec{at: now, src: f.Src, f: f})
	}
	for now = from; now < end; now++ {
		i := now - from
		measuring := now >= w.measStart && now < w.measEnd
		generating := !w.hooked || now < w.measEnd
		if generating {
			w.src.Generate(now, measuring)
		}
		if w.hooked {
			w.src.InjectAll(now, w.eng, onInject)
		} else {
			w.src.InjectAll(now, w.eng, nil)
		}
		if !w.ff || !w.eng.Quiescent() {
			w.eng.Step(now)
			for _, f := range w.eng.Ejected() {
				rec := delivRec{
					at: now, createdAt: f.CreatedAt, dst: f.Dst,
					hops: f.Hops, tail: f.Tail, measured: f.Measured,
				}
				if w.hooked {
					rec.f = f
				}
				w.deliv = append(w.deliv, rec)
				if !w.hooked {
					w.src.Recycle(f)
				}
			}
		}
		w.inflight[i] = w.eng.InFlight()
		w.backlog[i] = w.src.Backlog()
		if w.ff && w.src.Backlog() == 0 && (w.gap || !generating) {
			wake := w.eng.NextWake(now)
			if w.gap && (!w.hooked || now+1 < w.measEnd) {
				if at, ok := w.src.WheelNext(); ok && at < wake {
					wake = at
				}
			}
			if now < w.measEnd && wake > w.measEnd {
				wake = w.measEnd
			}
			if wake > end {
				wake = end
			}
			for c := now + 1; c < wake; c++ {
				w.inflight[c-from] = w.inflight[i]
				w.backlog[c-from] = w.backlog[i]
			}
			if wake-1 > now {
				now = wake - 1
			}
		}
	}
}

// Run executes one network simulation across o.Workers shards and
// returns the byte-identical serial result. See the package comment for
// the synchronization scheme.
func Run(o Options) (network.Result, error) {
	o.Options = o.Options.WithDefaults()
	topo, err := o.Topology()
	if err != nil {
		return network.Result{}, err
	}
	p := o.Workers
	if p < 1 {
		p = 1
	}
	parts := Partition(topo.Routers(), p)
	epochLen := int64(network.Lookahead(topo) + testLookaheadSkew)
	if epochLen < 1 {
		epochLen = 1
	}
	hooked := o.Hooks != nil
	gap := o.Injection == traffic.InjGap
	ff := !o.NoFastForward
	measStart := o.WarmupCycles
	measEnd := o.WarmupCycles + o.MeasureCycles
	maxCycles := measEnd + o.DrainCycles

	workers := make([]*worker, p)
	owner := make([]int, topo.Routers())
	srcOpts := o.SourceOpts(topo)
	for i, rg := range parts {
		workers[i] = &worker{
			eng:    network.NewNetworkRange(topo, o.RouteSeed(), rg[0], rg[1]),
			src:    network.NewSources(topo, srcOpts, rg[0], rg[1]),
			hooked: hooked, gap: gap, ff: ff,
			measStart: measStart, measEnd: measEnd,
		}
		for r := rg[0]; r < rg[1]; r++ {
			owner[r] = i
		}
	}

	n, ser := topo.Terminals(), topo.SerCycles()
	lat := stats.NewSample(8192)
	hops := stats.NewSample(4096)
	var (
		deliveredLabeled int64
		measFlitsOut     int64
		delFlits         int64
		now              int64
	)
	var xs []network.Xmsg
	var recs []delivRec
	var injs []injRec
	var wg sync.WaitGroup

	for now = 0; now < maxCycles; {
		from := now
		end := from + epochLen
		if end > maxCycles {
			end = maxCycles
		}
		// 1. Epoch: every worker simulates [from, end) independently.
		wg.Add(len(workers))
		for _, w := range workers {
			go func(w *worker) {
				defer wg.Done()
				w.runEpoch(from, end)
			}(w)
		}
		wg.Wait()
		now = end

		// 2. Barrier: merge the cross-shard mailboxes in canonical order
		// and deliver each message to its destination's owner. Merge
		// order is observable (calendar insertion order within a cycle
		// survives into land/drain order), so this sort is what detaches
		// the results from worker count and goroutine scheduling.
		xs = xs[:0]
		for _, w := range workers {
			xs = append(xs, w.eng.TakeOutbox()...)
		}
		network.SortXmsgs(xs)
		for _, m := range xs {
			workers[owner[m.DstRouter]].eng.PutRemote(m)
		}

		// 3. Replay: merge the per-worker records into the serial
		// driver's accumulation order and rerun its per-cycle accounting,
		// hooks, and exit checks over the epoch. Totals that feed the
		// drain-exit checks (generated flits, labeled injections) are
		// final by measEnd — generation stops there in hooked runs and
		// labeling always does — and the checks never fire earlier, so
		// the barrier-time sums are exactly the values the serial driver
		// would have read at each checked cycle.
		recs = recs[:0]
		injs = injs[:0]
		for _, w := range workers {
			recs = append(recs, w.deliv...)
			if hooked {
				injs = append(injs, w.injs...)
			}
		}
		if !testUnorderedMerge {
			slices.SortFunc(recs, func(a, b delivRec) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.dst, b.dst))
			})
		}
		if hooked {
			slices.SortFunc(injs, func(a, b injRec) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src))
			})
		}
		var genTotal, injLabeledTotal int64
		for _, w := range workers {
			genTotal += w.src.GenFlits()
			injLabeledTotal += w.src.InjectedLabeled()
		}
		sumAt := func(c int64) (inflight int, backlog int64) {
			for _, w := range workers {
				inflight += w.inflight[c-from]
				backlog += w.backlog[c-from]
			}
			return
		}
		ri, ii := 0, 0
		exited := false
		for c := from; c < end && !exited; c++ {
			measuring := c >= measStart && c < measEnd
			for ii < len(injs) && injs[ii].at == c {
				o.Hooks.Injected(c, injs[ii].f)
				ii++
			}
			for ri < len(recs) && recs[ri].at == c {
				rec := recs[ri]
				if measuring {
					measFlitsOut++
				}
				if rec.tail && rec.measured {
					lat.Add(float64(c - rec.createdAt))
					hops.Add(float64(rec.hops))
					deliveredLabeled++
				}
				delFlits++
				if hooked {
					o.Hooks.Delivered(c, rec.f)
				}
				ri++
			}
			inflight, backlog := sumAt(c)
			if hooked {
				if err := o.Hooks.EndCycle(c, inflight); err != nil {
					return network.Result{}, err
				}
				if c >= measEnd && delFlits >= genTotal {
					now = c + 1
					exited = true
				}
			} else if c >= measEnd && (deliveredLabeled >= injLabeledTotal ||
				(backlog == 0 && inflight == 0)) {
				now = c + 1
				exited = true
			}
		}
		if exited {
			break
		}

		// 4. Global fast-forward, mirroring the serial driver's jump from
		// the epoch's last cycle: if no worker can generate or deliver
		// anything before the earliest pending event, advance the next
		// epoch's start straight there. Evaluated only after the exit
		// scan — a jump from a cycle where the exit would have fired
		// would overshoot the serial stop cycle.
		last := end - 1
		generatingLast := !hooked || last < measEnd
		_, backlogLast := sumAt(last)
		if ff && backlogLast == 0 && (gap || !generatingLast) {
			wake := sim.NoWake
			for _, w := range workers {
				if at := w.eng.NextWake(last); at < wake {
					wake = at
				}
			}
			if gap && (!hooked || end < measEnd) {
				for _, w := range workers {
					if at, ok := w.src.WheelNext(); ok && at < wake {
						wake = at
					}
				}
			}
			if last < measEnd && wake > measEnd {
				wake = measEnd
			}
			if wake > maxCycles {
				wake = maxCycles
			}
			if wake > now {
				now = wake
			}
		}
	}

	res := network.Result{
		Load:       o.Load,
		AvgLatency: lat.Mean(),
		P99:        lat.Quantile(0.99),
		Throughput: float64(measFlitsOut) * float64(ser) / (float64(n) * float64(o.MeasureCycles)),
		Packets:    deliveredLabeled,
		Cycles:     now,
		AvgHops:    hops.Mean(),
	}
	if now > measEnd {
		res.DrainUsed = now - measEnd
	}
	var injLabeledTotal int64
	for _, w := range workers {
		injLabeledTotal += w.src.InjectedLabeled()
	}
	if deliveredLabeled < injLabeledTotal || res.AvgLatency > o.SatLatency {
		res.Saturated = true
	}
	return res, nil
}

// Sweep is the sharded counterpart of network.Sweep: runs across
// offered loads, stopping after the first saturated point.
func Sweep(name string, loads []float64, base Options) (*stats.Series, error) {
	s := &stats.Series{Name: name}
	for _, load := range loads {
		o := base
		o.Load = load
		res, err := Run(o)
		if err != nil {
			return nil, err
		}
		s.Add(load, res.AvgLatency, res.Saturated)
		if res.Saturated {
			break
		}
	}
	return s, nil
}
