// Command hrsweepd is the long-running figure service: it serves the
// repository's experiments over HTTP, answering warm figures from the
// content-addressed result cache in microseconds and dispatching cold
// ones to the sweep worker pool with bounded concurrency and
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
// Determinism makes the service sound: a figure served from cache is
// byte-identical to one regenerated from scratch, so clients cannot
// tell whether their request was warm — except by its latency.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
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

func main() {
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
		os.Exit(2)
	}
	injMode, err := traffic.InjModeByName(*inj)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrsweepd:", err)
		os.Exit(2)
	}
	st, err := cache.Open(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrsweepd:", err)
		os.Exit(1)
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
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	log.Printf("hrsweepd: serving %d experiments on %s (cache %s)", len(experiments.Registry), *addr, st.Dir())
	select {
	case err := <-served:
		log.Fatalf("hrsweepd: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills at once
	log.Printf("hrsweepd: draining in-flight requests (at most %s)", *timeout)
	drain, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		log.Fatalf("hrsweepd: shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("hrsweepd: %v", err)
	}
	// Shutdown waits for open connections only; a computation whose
	// client gave up (504 or disconnect) runs on and may be writing the
	// store, so wait for those too, within the same budget.
	for srv.Metrics().Inflight > 0 {
		select {
		case <-drain.Done():
			log.Fatalf("hrsweepd: shutdown: %v", drain.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
	log.Printf("hrsweepd: drained")
}
