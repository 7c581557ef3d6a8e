// Package serve is the HTTP figure service behind cmd/hrsweepd: it
// renders the repository's experiments and single-router points over
// HTTP, serving repeated requests from a bounded memo of rendered
// bodies, running a figure's generator over the points in the
// content-addressed result cache, and simulating each point the cache
// lacks exactly once no matter how many requests ask for it.
//
// Soundness is inherited from the cache layer: every simulation in the
// repository is deterministic in its options, so a stored point is
// byte-identical to a resimulated one, and a figure is always its
// current generator run over its points. Concurrency control is
// layered:
//
//   - the store's single-flight collapses concurrent requests for one
//     cold point into one simulation;
//   - a semaphore bounds how many figure generations and point lookups
//     run at once, so a burst of cold traffic cannot fork an unbounded
//     number of sweep pools;
//   - a per-request timeout turns a too-slow cold computation into 504
//     Gateway Timeout. The computation itself keeps running and warms
//     the cache for the retry — abandoning it would waste the work.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"highradix/internal/experiments"
	"highradix/internal/router"
	"highradix/internal/stats"
	"highradix/internal/sweep"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// Config parameterizes the service.
type Config struct {
	// Scale is the experiment scale every figure is generated at; its
	// Cache field (usually non-nil) is what makes warm requests cheap.
	Scale experiments.Scale
	// MaxInflight bounds how many memo misses may compute concurrently;
	// further ones queue. <= 0 selects 2.
	MaxInflight int
	// Timeout is the per-request budget for cold computations; a
	// request whose figure is not ready in time gets 504. <= 0 selects
	// 5 minutes.
	Timeout time.Duration
}

// Metrics is a snapshot of the service counters exported on /metrics.
type Metrics struct {
	// Requests counts every request accepted by a service endpoint.
	Requests int64
	// FigureHits / FigureMisses count figure and point requests that
	// were answered from cache vs had to compute.
	FigureHits   int64
	FigureMisses int64
	// Errors counts requests answered with a 4xx/5xx status.
	Errors int64
	// Timeouts counts cold requests that exceeded the budget (a subset
	// of Errors).
	Timeouts int64
	// Inflight is the number of cold computations running now.
	Inflight int64
	// LatencyMicros is the cumulative request service time; divide by
	// Requests for the mean.
	LatencyMicros int64
}

// Server implements the figure service.
type Server struct {
	cfg  Config
	mux  *http.ServeMux
	pool *sweep.Pool
	cold chan struct{} // bounds concurrent memo-miss computations

	requests  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	errors    atomic.Int64
	timeouts  atomic.Int64
	inflight  atomic.Int64
	latencyUS atomic.Int64

	// rendered memoizes the 200 bodies of both endpoints by the parsed
	// request. Within one process the scale is fixed, so a rendered
	// figure or point never changes; the memo turns a warm request into
	// one map read. Figure entries are bounded by the registry times the
	// three formats; point entries by pointMemoCap, and points counts
	// them.
	mu       sync.RWMutex
	rendered map[memoKey][]byte
	points   int
}

// memoKey is one memoised response: a figure's name and format, or a
// point's canonical architecture, load and pattern name (figure "").
type memoKey struct {
	figure, format string
	arch           router.Arch
	load           float64
	pattern        string
}

// pointMemoCap bounds the memo's point entries; inserting one more
// drops an arbitrary point. A variable so that tests may shrink it.
var pointMemoCap = 4096

// recall returns the memoised body for k, if any.
func (s *Server) recall(k memoKey) ([]byte, bool) {
	s.mu.RLock()
	body, ok := s.rendered[k]
	s.mu.RUnlock()
	return body, ok
}

// remember memoises body under k, first dropping an arbitrary point
// entry when k is a new point and the point entries are at their cap.
func (s *Server) remember(k memoKey, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.rendered[k]; !ok && k.figure == "" {
		if s.points >= pointMemoCap {
			for old := range s.rendered {
				if old.figure == "" {
					delete(s.rendered, old)
					s.points--
					break
				}
			}
		}
		s.points++
	}
	s.rendered[k] = body
}

// New builds the service.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		pool:     sweep.New(cfg.Scale.Workers),
		cold:     make(chan struct{}, cfg.MaxInflight),
		rendered: map[memoKey][]byte{},
	}
	s.mux.HandleFunc("GET /figures/{name}", s.handleFigure)
	s.mux.HandleFunc("GET /points", s.handlePoint)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns a snapshot of the service counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Requests:      s.requests.Load(),
		FigureHits:    s.hits.Load(),
		FigureMisses:  s.misses.Load(),
		Errors:        s.errors.Load(),
		Timeouts:      s.timeouts.Load(),
		Inflight:      s.inflight.Load(),
		LatencyMicros: s.latencyUS.Load(),
	}
}

// track wraps a handler body with the request/latency/error counters.
func (s *Server) track(fn func() int) {
	s.requests.Add(1)
	t0 := time.Now()
	status := fn()
	s.latencyUS.Add(time.Since(t0).Microseconds())
	if status >= 400 {
		s.errors.Add(1)
	}
}

// ok writes a 200 body and counts it as a hit (memo or store) or a miss.
func (s *Server) ok(w http.ResponseWriter, contentType string, body []byte, hit bool) int {
	if hit {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(body)
	return http.StatusOK
}

// format resolves the response format from ?format=, defaulting to the
// aligned text table.
func format(r *http.Request) (name, contentType string, ok bool) {
	switch f := r.URL.Query().Get("format"); f {
	case "", "text":
		return "text", "text/plain; charset=utf-8", true
	case "csv":
		return "csv", "text/csv; charset=utf-8", true
	case "json":
		return "json", "application/json", true
	default:
		return f, "", false
	}
}

func render(t *stats.Table, format string) ([]byte, error) {
	switch format {
	case "text":
		return []byte(t.String()), nil
	case "csv":
		return []byte(t.CSV()), nil
	case "json":
		return t.JSON()
	}
	return nil, fmt.Errorf("serve: unknown format %q", format)
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	s.track(func() int {
		name := r.PathValue("name")
		fmtName, contentType, ok := format(r)
		if !ok {
			http.Error(w, "unknown format (want text, csv or json)", http.StatusBadRequest)
			return http.StatusBadRequest
		}
		key := memoKey{figure: name, format: fmtName}
		if body, warm := s.recall(key); warm {
			return s.ok(w, contentType, body, true)
		}
		if _, err := experiments.ByName(name); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return http.StatusNotFound
		}
		body, hit, status := s.compute(r.Context(), func() ([]byte, bool, error) {
			t, hit, err := experiments.Table(name, s.cfg.Scale)
			if err != nil {
				return nil, false, err
			}
			b, err := render(t, fmtName)
			return b, hit, err
		})
		if status != http.StatusOK {
			http.Error(w, http.StatusText(status), status)
			return status
		}
		s.remember(key, body)
		return s.ok(w, contentType, body, hit)
	})
}

// handlePoint serves one single-router sweep point:
//
//	GET /points?arch=baseline&load=0.5[&pattern=...][&format=json]
//
// A repeated point is answered from the memo, keyed by the parsed request
// (load=0.5 and load=0.50 are one entry). A memo miss is one store
// lookup: the point is the figure generators' own
// (experiments.Scale.Point), so a point that any figure already
// computed is warm here and vice versa.
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	s.track(func() int {
		q := r.URL.Query()
		arch, err := router.ArchByName(q.Get("arch"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return http.StatusBadRequest
		}
		// Written so that NaN fails it too.
		load, err := strconv.ParseFloat(q.Get("load"), 64)
		if err != nil || !(load > 0 && load <= 1) {
			http.Error(w, "load must be a float in (0, 1]", http.StatusBadRequest)
			return http.StatusBadRequest
		}
		key := memoKey{arch: arch, load: load, pattern: q.Get("pattern")}
		if body, warm := s.recall(key); warm {
			return s.ok(w, "application/json", body, true)
		}
		// No pattern is the drivers' default (uniform), keyed as the figure
		// generators key it; a named one resolves as in the CLIs, against
		// the default radix-64 router this endpoint builds.
		var pattern traffic.Pattern
		if name := key.pattern; name != "" {
			if pattern, err = traffic.ByName(name, 64, 8, 8); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return http.StatusBadRequest
			}
		}
		body, hit, status := s.compute(r.Context(), func() ([]byte, bool, error) {
			res, hit, err := s.cfg.Scale.Point(s.pool, router.Config{Arch: arch}, pattern, load)
			if err != nil {
				return nil, false, err
			}
			return pointBody(res), hit, nil
		})
		if status != http.StatusOK {
			http.Error(w, http.StatusText(status), status)
			return status
		}
		s.remember(key, body)
		return s.ok(w, "application/json", body, hit)
	})
}

// pointBody renders one result as deterministic JSON.
func pointBody(res testbench.Result) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"load":%g,"avgLatency":%g,"p50":%g,"p99":%g,"throughput":%g,"packets":%d,"saturated":%t,"cycles":%d}`+"\n",
		res.Load, res.AvgLatency, res.P50, res.P99, res.Throughput, res.Packets, res.Saturated, res.Cycles)
	return []byte(b.String())
}

// compute runs fn under the cold-computation semaphore with the
// per-request timeout and returns an HTTP status. fn runs on its own
// goroutine; on timeout it is abandoned (it completes and warms the
// cache) and the caller gets 504.
func (s *Server) compute(ctx context.Context, fn func() ([]byte, bool, error)) (body []byte, hit bool, status int) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()
	select {
	case s.cold <- struct{}{}:
	case <-ctx.Done():
		s.timeouts.Add(1)
		return nil, false, http.StatusGatewayTimeout
	}
	type out struct {
		body []byte
		hit  bool
		err  error
	}
	ch := make(chan out, 1)
	s.inflight.Add(1)
	go func() {
		b, h, err := fn()
		// Release before replying: a client holding the reply must not be
		// able to observe its own computation as still in flight.
		<-s.cold
		s.inflight.Add(-1)
		ch <- out{b, h, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return nil, false, http.StatusInternalServerError
		}
		return o.body, o.hit, http.StatusOK
	case <-ctx.Done():
		s.timeouts.Add(1)
		return nil, false, http.StatusGatewayTimeout
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics exports the service and store counters in the
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(name string, v int64) { fmt.Fprintf(w, "%s %d\n", name, v) }
	p("hrsweepd_requests_total", m.Requests)
	p("hrsweepd_figure_hits_total", m.FigureHits)
	p("hrsweepd_figure_misses_total", m.FigureMisses)
	p("hrsweepd_errors_total", m.Errors)
	p("hrsweepd_timeouts_total", m.Timeouts)
	p("hrsweepd_inflight", m.Inflight)
	p("hrsweepd_request_latency_micros_total", m.LatencyMicros)
	if st := s.cfg.Scale.Cache; st != nil {
		c := st.Counters()
		p("hrsweepd_store_hits_total", c.Hits)
		p("hrsweepd_store_misses_total", c.Misses)
		p("hrsweepd_store_corrupt_total", c.Corrupt)
		p("hrsweepd_store_computes_total", c.Computes)
		p("hrsweepd_store_puts_total", c.Puts)
		p("hrsweepd_store_inflight", c.Inflight)
	}
}
