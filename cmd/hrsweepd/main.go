// Command hrsweepd is the long-running figure service: it serves the
// repository's experiments over HTTP, answering a repeated request from
// memory in microseconds, running a figure's generator over the points
// in the content-addressed result cache, and dispatching the points it
// lacks to the sweep worker pool with bounded concurrency and
// per-request timeouts.
//
// Usage:
//
//	hrsweepd -cache DIR [-addr :8080] [-quick] [-seed N] [-j N] [-maxinflight N] [-timeout 5m]
//
// Endpoints:
//
//	GET /figures/{name}[?format=text|csv|json]  one experiment's table
//	GET /points?arch=NAME&load=F                one single-router sweep point (JSON)
//	GET /healthz                                liveness probe
//	GET /metrics                                service + store counters (Prometheus text)
//
// SIGINT or SIGTERM stops accepting connections and drains for at most
// -timeout, then exits 0: requests still open are answered, and every
// cold computation still running — a client's, or one whose client gave
// up — finishes and lands in the store first.
//
// Determinism makes the service sound: a point read from the cache is
// byte-identical to one resimulated, and a figure is always its current
// generator run over its points, so clients cannot tell whether their
// request was warm — except by its latency.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"highradix/internal/cache"
	"highradix/internal/experiments"
	"highradix/internal/serve"
	"highradix/internal/traffic"
)

func main() { os.Exit(run()) }

// run is main with an exit status instead of os.Exit: it parses the
// flags, opens the store, listens and serves until SIGINT or SIGTERM.
func run() int {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cacheDir = flag.String("cache", "", "content-addressed result cache directory (required)")
		quick    = flag.Bool("quick", false, "serve figures at the reduced Quick scale instead of publication scale")
		seed     = flag.Uint64("seed", 1, "random seed for all simulations")
		jobs     = flag.Int("j", 0, "sweep pool workers per generation (0 = GOMAXPROCS)")
		inj      = flag.String("inj", "percycle", "injection sampling: percycle|gap")
		inflight = flag.Int("maxinflight", 2, "max concurrent cold figure computations")
		timeout  = flag.Duration("timeout", 5*time.Minute, "per-request budget for cold computations (exceeded -> 504)")
	)
	flag.Parse()

	if *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "hrsweepd: -cache DIR is required (the cache is what makes a figure service viable)")
		return 2
	}
	injMode, err := traffic.InjModeByName(*inj)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrsweepd:", err)
		return 2
	}
	st, err := cache.Open(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrsweepd:", err)
		return 1
	}

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	scale.Seed = *seed
	scale.Workers = *jobs
	scale.Injection = injMode
	scale.Cache = st

	srv := serve.New(serve.Config{
		Scale:       scale,
		MaxInflight: *inflight,
		Timeout:     *timeout,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("hrsweepd: %v", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // a second signal kills at once
	log.Printf("hrsweepd: serving %d experiments on %s (cache %s)", len(experiments.Registry), ln.Addr(), st.Dir())
	if err := serveUntil(ctx, ln, srv, *timeout); err != nil {
		log.Printf("hrsweepd: %v", err)
		return 1
	}
	log.Printf("hrsweepd: drained")
	return 0
}

// serveUntil serves srv on ln until ctx is cancelled, then drains for at
// most drain: http.Server.Shutdown answers the requests still open, and
// a wait for srv's Inflight counter to reach zero lets every cold
// computation still running land in the store. A nil return means the
// drain completed.
func serveUntil(ctx context.Context, ln net.Listener, srv *serve.Server, drain time.Duration) error {
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	log.Printf("hrsweepd: draining in-flight requests (at most %s)", drain)
	budget, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(budget); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Shutdown waits for open connections only; a computation whose
	// client gave up (504 or disconnect) runs on and may be writing the
	// store, so wait for those too, within the same budget.
	for srv.Metrics().Inflight > 0 {
		select {
		case <-budget.Done():
			return fmt.Errorf("shutdown: %w", budget.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
	return nil
}
