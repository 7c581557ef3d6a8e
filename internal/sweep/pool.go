// Package sweep is the parallel sweep engine behind the experiment
// generators: it fans fully independent simulation runs — the (arch,
// load, pattern) points of one figure — out across a fixed pool of
// workers and reassembles their results in declaration order.
//
// Determinism is the design constraint. Every run in this repository
// owns its randomness (testbench.Options.Seed / network.Options.Seed
// seed a per-run RNG), so a run's result depends only on its options,
// never on when or where it executes. The pool therefore guarantees
// that parallel and serial execution produce byte-identical output:
// results are returned in submission order, curve truncation at
// saturation follows declaration order, and errors are reported for
// the lowest-index failing job.
//
// Two fan-out primitives compose without deadlock:
//
//   - Map / Do submit leaf jobs. Leaf jobs occupy one of the pool's
//     worker slots while they run, bounding concurrent simulations at
//     the pool size no matter how many jobs are in flight.
//   - Gather runs composite tasks (one figure line = a latency curve
//     plus a saturation run) on plain goroutines that hold no slot, so
//     the leaf jobs they submit can always make progress.
package sweep

import (
	"runtime"
	"sync"

	"highradix/internal/stats"
)

// Pool bounds the number of simulation runs executing concurrently.
// A Pool may be shared by any number of goroutines; submitting a job
// never requires holding another job's slot, so nested fan-out through
// Gather cannot deadlock.
type Pool struct {
	workers int
	sem     chan struct{}
}

// New returns a pool of the given size. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 reproduces serial execution: at
// most one run in flight at any moment.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, sem: make(chan struct{}, workers)}
}

// Map runs fn over every item on the pool's workers and returns the
// results in item order. All jobs are attempted; if any fail, the
// error of the lowest-index failing item is returned (the one serial
// iteration would have hit first), making error reporting as
// deterministic as the results.
func Map[In, Out any](p *Pool, items []In, fn func(In) (Out, error)) ([]Out, error) {
	return Gather(items, func(in In) (Out, error) {
		return Do(p, func() (Out, error) { return fn(in) })
	})
}

// Do runs one job on the pool, blocking until a worker slot frees. A
// job waiting for a slot does not count against the simulator's CPU
// budget (drive.Claim): it can start only when a running job ends and
// returns its own CPU, so the runs in the slots may use the CPUs the
// pool leaves spare — a producer goroutine, a network run's second
// worker — on a pool smaller than GOMAXPROCS.
func Do[Out any](p *Pool, fn func() (Out, error)) (Out, error) {
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	return fn()
}

// Gather runs fn for every item on its own goroutine without occupying
// a worker slot and returns the results in item order. It is the
// composite-task primitive: each fn typically submits several leaf
// jobs through Map or Do on a shared pool, which is what bounds the
// actual simulation concurrency. Like Map, it runs everything and
// reports the lowest-index error.
func Gather[In, Out any](items []In, fn func(In) (Out, error)) ([]Out, error) {
	outs := make([]Out, len(items))
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = fn(items[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// Point is the outcome of one sweep point: the y value plotted against
// the swept x, plus the saturation flag that terminates the curve.
type Point struct {
	Y         float64
	Saturated bool
}

// Curve sweeps run over xs and returns the series named name,
// truncated after the first saturated point — the contract of a serial
// early-stopping loop, which stops where the paper's curves end. On a
// one-worker pool Curve is that loop (highradix.SweepLoads and
// SweepNetwork run it so).
//
// Points launch strictly in index order through a sliding window of
// min(pool size, GOMAXPROCS) past the lowest incomplete index:
// launching more points of one curve than there are CPUs cannot finish
// the curve sooner, it only time-slices the point that decides whether
// the rest are needed. The launcher stops at the first index known to
// be saturated (or failed), and a point that was already launched
// rechecks that bound once, when its goroutine starts, before run. run
// then waits for a pool slot inside RunCached or Do, so a point queued
// there behind other curves' points still runs if its own curve's knee
// lands meanwhile (DESIGN.md counts them per Quick pass). Because no index
// launches until everything more than a window behind it has
// completed, at most lookahead-1 points past the saturation index can
// ever run — on one CPU the window is one point wide and the loop is
// exactly the serial early-stopping sweep, which is what restores
// serial wall-clock for saturating curves at any -j.
//
// Output is deterministic because it depends only on results at
// indices up to the first saturated index, all of which are always
// computed: points are added in index order and the curve truncates at
// the first saturated point. If a point at or below that index fails,
// the lowest-index error is returned — the one the serial loop would
// have hit first.
//
// run executes on a plain goroutine WITHOUT holding a worker slot; it
// must bound its own simulation concurrency by going through Do or
// RunCached on the shared pool. That split is what lets a cached point
// answer without consuming a slot, and is required for lock ordering:
// a run that held a slot while waiting on a cache single-flight could
// fill every slot with waiters and starve the flight's one compute.
// The pool parameter sizes the lookahead window only.
func Curve(p *Pool, name string, xs []float64, run func(x float64) (Point, error)) (*stats.Series, error) {
	s := &stats.Series{Name: name}
	n := len(xs)
	if n == 0 {
		return s, nil
	}
	lookahead := p.workers
	if mp := runtime.GOMAXPROCS(0); mp < lookahead {
		lookahead = mp
	}

	type outcome struct {
		pt   Point
		err  error
		done bool
	}
	results := make([]outcome, n)
	finished := make([]bool, n)
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		bound    = n // lowest index known saturated or failed
		frontier = 0 // lowest index not yet finished
		inflight = 0
		next     = 0
	)
	mu.Lock()
	for {
		for next < n && next <= bound && next >= frontier+lookahead {
			cond.Wait()
		}
		if next >= n || next > bound {
			break
		}
		i := next
		next++
		inflight++
		mu.Unlock()
		go func(i int) {
			// The bound may have dropped below i between the launch
			// decision and this goroutine getting scheduled; skip the
			// run rather than simulate a point past the curve's end.
			mu.Lock()
			skip := i > bound
			mu.Unlock()
			var o outcome
			if !skip {
				o.pt, o.err = run(xs[i])
				o.done = true
			}
			mu.Lock()
			results[i] = o
			finished[i] = true
			for frontier < n && finished[frontier] {
				frontier++
			}
			if o.done && (o.err != nil || o.pt.Saturated) && i < bound {
				bound = i
			}
			inflight--
			cond.Broadcast()
			mu.Unlock()
		}(i)
		mu.Lock()
	}
	for inflight > 0 {
		cond.Wait()
	}
	mu.Unlock()

	for i := 0; i < n; i++ {
		r := results[i]
		if !r.done {
			break
		}
		if r.err != nil {
			return nil, r.err
		}
		s.Add(xs[i], r.pt.Y, r.pt.Saturated)
		if r.pt.Saturated {
			return s, nil
		}
	}
	return s, nil
}
