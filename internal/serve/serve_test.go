package serve

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"highradix/internal/cache"
	"highradix/internal/experiments"
)

// testServer builds a service over a tiny scale with a fresh store.
func testServer(t *testing.T) *Server {
	t.Helper()
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{
		Scale: experiments.Scale{
			Warmup:  100,
			Measure: 200,
			Loads:   []float64{0.2, 0.9},
			Seed:    1,
			Workers: 1,
			Cache:   st,
		},
		MaxInflight: 2,
		Timeout:     time.Minute,
	})
}

func get(t *testing.T, s *Server, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	b, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(b), rec.Result().Header.Get("Content-Type")
}

func TestFigureFormats(t *testing.T) {
	s := testServer(t)
	// fig2 is analytic — no simulation, so this focuses on the HTTP and
	// rendering layers.
	code, text, ct := get(t, s, "/figures/fig2")
	if code != 200 || !strings.Contains(text, "==") || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text: code=%d ct=%q body=%q", code, ct, text[:min(len(text), 80)])
	}
	code, csv, ct := get(t, s, "/figures/fig2?format=csv")
	if code != 200 || !strings.HasPrefix(ct, "text/csv") || csv == text {
		t.Fatalf("csv: code=%d ct=%q", code, ct)
	}
	code, js, ct := get(t, s, "/figures/fig2?format=json")
	if code != 200 || ct != "application/json" || !strings.HasPrefix(strings.TrimSpace(js), "{") {
		t.Fatalf("json: code=%d ct=%q body=%q", code, ct, js[:min(len(js), 80)])
	}
	if code, _, _ := get(t, s, "/figures/fig2?format=yaml"); code != 400 {
		t.Fatalf("unknown format: code=%d, want 400", code)
	}
	if code, _, _ := get(t, s, "/figures/no-such-figure"); code != 404 {
		t.Fatalf("unknown figure: code=%d, want 404", code)
	}
	// Warm repeats are byte-identical in every format.
	if _, again, _ := get(t, s, "/figures/fig2?format=json"); again != js {
		t.Fatal("warm JSON body differs from cold one")
	}
}

// TestFigureSingleFlight is the satellite contract: N concurrent
// requests for one cold figure run exactly one generation, and every
// response body is byte-identical.
func TestFigureSingleFlight(t *testing.T) {
	s := testServer(t)
	const n = 16
	bodies := make([]string, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i], _ = get(t, s, "/figures/fig2")
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: code %d", i, codes[i])
		}
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d body differs", i)
		}
	}
	// fig2 is analytic: its only store compute is the figure itself, so
	// the count is exact.
	if got := s.cfg.Scale.Cache.Counters().Computes; got != 1 {
		t.Fatalf("%d generator runs for one cold figure, want 1", got)
	}
}

func TestPointEndpoint(t *testing.T) {
	s := testServer(t)
	code, body, ct := get(t, s, "/points?arch=baseline&load=0.5")
	if code != 200 || ct != "application/json" || !strings.Contains(body, `"avgLatency"`) {
		t.Fatalf("point: code=%d ct=%q body=%q", code, ct, body)
	}
	if code, again, _ := get(t, s, "/points?arch=baseline&load=0.5"); code != 200 || again != body {
		t.Fatalf("warm point not byte-identical (code %d)", code)
	}
	computes := s.cfg.Scale.Cache.Counters().Computes
	if computes != 1 {
		t.Fatalf("%d computes for two identical point requests, want 1", computes)
	}
	// A named pattern is simulated and keyed as that pattern, not served
	// the uniform point above.
	code, hot, _ := get(t, s, "/points?arch=baseline&load=0.5&pattern=hotspot")
	if code != 200 || hot == body {
		t.Fatalf("hotspot point: code=%d, same body as uniform: %t", code, hot == body)
	}
	if code, again, _ := get(t, s, "/points?arch=baseline&load=0.5&pattern=hotspot"); code != 200 || again != hot {
		t.Fatalf("warm hotspot point not byte-identical (code %d)", code)
	}
	if computes := s.cfg.Scale.Cache.Counters().Computes; computes != 2 {
		t.Fatalf("%d computes after a uniform and a hotspot point, each asked twice, want 2", computes)
	}
	if code, _, _ := get(t, s, "/points?arch=baseline&load=0.5&pattern=nope"); code != 400 {
		t.Fatalf("bad pattern: code=%d, want 400", code)
	}
	if code, _, _ := get(t, s, "/points?arch=nope&load=0.5"); code != 400 {
		t.Fatalf("bad arch: code=%d, want 400", code)
	}
	if code, _, _ := get(t, s, "/points?arch=baseline&load=2"); code != 400 {
		t.Fatalf("bad load: code=%d, want 400", code)
	}
	if code, _, _ := get(t, s, "/points?arch=baseline&load=x"); code != 400 {
		t.Fatalf("unparsable load: code=%d, want 400", code)
	}
}

// TestPointStoreLookups pins one store lookup per /points request: a
// cold point is one miss and one compute, a warm one is one hit.
func TestPointStoreLookups(t *testing.T) {
	s := testServer(t)
	st := s.cfg.Scale.Cache
	for _, want := range []cache.Counters{{Misses: 1, Computes: 1, Puts: 1}, {Hits: 1}} {
		before := st.Counters()
		if code, _, _ := get(t, s, "/points?arch=baseline&load=0.5"); code != 200 {
			t.Fatalf("code %d", code)
		}
		after := st.Counters()
		got := cache.Counters{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
			Computes: after.Computes - before.Computes, Puts: after.Puts - before.Puts}
		if got != want {
			t.Errorf("store counters moved by %+v, want %+v", got, want)
		}
	}
}

// TestPointSharesFigurePoints: /points runs the figure generators' point,
// so one that a figure computed is a single store hit and no compute.
func TestPointSharesFigurePoints(t *testing.T) {
	s := testServer(t)
	if code, _, _ := get(t, s, "/figures/fig13"); code != 200 {
		t.Fatalf("fig13: code %d", code)
	}
	st := s.cfg.Scale.Cache
	before := st.Counters()
	if code, _, _ := get(t, s, "/points?arch=baseline&load=0.2"); code != 200 {
		t.Fatalf("point: code %d", code)
	}
	after := st.Counters()
	got := cache.Counters{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Computes: after.Computes - before.Computes, Puts: after.Puts - before.Puts}
	if want := (cache.Counters{Hits: 1}); got != want {
		t.Errorf("store counters moved by %+v, want %+v", got, want)
	}
}

// TestMetricsMatchRequestLog replays a request log and checks the
// exported counters agree with it exactly.
func TestMetricsMatchRequestLog(t *testing.T) {
	s := testServer(t)
	type want struct {
		path string
		ok   bool
	}
	log := []want{
		{"/figures/fig2", true},                  // miss
		{"/figures/fig2", true},                  // hit (memo)
		{"/figures/fig2?format=csv", true},       // hit (figure store warm)
		{"/figures/nope", false},                 // 404
		{"/points?arch=baseline&load=0.9", true}, // miss
		{"/points?arch=baseline&load=0.9", true}, // hit
		{"/points?arch=baseline&load=-1", false}, // 400
	}
	for i, rq := range log {
		code, _, _ := get(t, s, rq.path)
		if rq.ok != (code == 200) {
			t.Fatalf("request %d (%s): code %d", i, rq.path, code)
		}
	}
	m := s.Metrics()
	if m.Requests != int64(len(log)) {
		t.Errorf("Requests = %d, want %d", m.Requests, len(log))
	}
	if m.Errors != 2 {
		t.Errorf("Errors = %d, want 2", m.Errors)
	}
	if m.FigureMisses != 2 {
		t.Errorf("FigureMisses = %d, want 2 (one figure, one point)", m.FigureMisses)
	}
	if m.FigureHits != 3 {
		t.Errorf("FigureHits = %d, want 3", m.FigureHits)
	}
	if m.Inflight != 0 {
		t.Errorf("Inflight = %d at rest, want 0", m.Inflight)
	}
	// The text exposition agrees with the snapshot.
	_, metrics, ct := get(t, s, "/metrics")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	if !strings.Contains(metrics, fmt.Sprintf("hrsweepd_requests_total %d", len(log))) {
		t.Errorf("metrics missing request count %d:\n%s", len(log), metrics)
	}
	if !strings.Contains(metrics, "hrsweepd_figure_hits_total 3") ||
		!strings.Contains(metrics, "hrsweepd_figure_misses_total 2") ||
		!strings.Contains(metrics, "hrsweepd_errors_total 2") {
		t.Errorf("metrics exposition does not match request log:\n%s", metrics)
	}
	if !strings.Contains(metrics, "hrsweepd_store_puts_total") {
		t.Errorf("metrics exposition missing store counters:\n%s", metrics)
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	code, body, _ := get(t, s, "/healthz")
	if code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

// TestTimeout: a request that cannot acquire the cold-computation
// semaphore within its budget gets 504 and is counted.
func TestTimeout(t *testing.T) {
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Scale: experiments.Scale{
			Warmup: 100, Measure: 200, Loads: []float64{0.2}, Seed: 1, Workers: 1, Cache: st,
		},
		MaxInflight: 1,
		Timeout:     20 * time.Millisecond,
	})
	// Occupy the only cold slot so the request must queue past its
	// budget.
	s.cold <- struct{}{}
	defer func() { <-s.cold }()
	code, _, _ := get(t, s, "/figures/fig2")
	if code != 504 {
		t.Fatalf("code = %d, want 504", code)
	}
	m := s.Metrics()
	if m.Timeouts != 1 || m.Errors != 1 {
		t.Fatalf("Timeouts=%d Errors=%d, want 1/1", m.Timeouts, m.Errors)
	}
}

// TestWarmThroughput is a smoke check on the perf budget: warm figure
// requests through the full handler stack must comfortably exceed the
// 1000 req/s floor (bench's serve_mix workload measures the real
// number; this guards against an accidental O(simulation) warm path).
func TestWarmThroughput(t *testing.T) {
	s := testServer(t)
	if code, _, _ := get(t, s, "/figures/fig2"); code != 200 {
		t.Fatal("warmup request failed")
	}
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		req := httptest.NewRequest("GET", "/figures/fig2", nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("request %d: code %d", i, rec.Code)
		}
	}
	elapsed := time.Since(t0)
	if rps := float64(n) / elapsed.Seconds(); rps < 1000 {
		t.Fatalf("warm path served %.0f req/s, want >= 1000", rps)
	}
}
