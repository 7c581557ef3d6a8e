package serve

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"highradix/internal/cache"
	"highradix/internal/experiments"
	"highradix/internal/router"
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

// get serves one request; it never fails the test, so that concurrent
// tests may call it from their own goroutines.
func get(t *testing.T, s *Server, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String(), rec.Header().Get("Content-Type")
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
	moved := storeMoved(s.cfg.Scale.Cache, func() {
		if code, _, _ := get(t, s, "/points?arch=baseline&load=NaN"); code != 400 {
			t.Errorf("NaN load: code=%d, want 400", code)
		}
	})
	if moved.Puts != 0 {
		t.Errorf("NaN load stored %d entries", moved.Puts)
	}
}

// storeMoved runs fn and returns how far it moved the store's hit, miss,
// compute and put counters.
func storeMoved(st *cache.Store, fn func()) cache.Counters {
	before := st.Counters()
	fn()
	after := st.Counters()
	return cache.Counters{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Computes: after.Computes - before.Computes, Puts: after.Puts - before.Puts}
}

// getOK is get for a request that must answer 200; it returns the body.
func getOK(t *testing.T, s *Server, path string) string {
	t.Helper()
	code, body, _ := get(t, s, path)
	if code != 200 {
		t.Fatalf("GET %s: code %d", path, code)
	}
	return body
}

// memoCounts returns the memo's point and figure entries, checking the
// point entries against the running count the cap is enforced on.
func memoCounts(t *testing.T, s *Server) (points, figures int) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k := range s.rendered {
		if k.figure == "" {
			points++
		} else {
			figures++
		}
	}
	if points != s.points {
		t.Fatalf("memo holds %d point entries, counted %d", points, s.points)
	}
	return points, figures
}

// TestPointStoreLookups pins the store traffic of /points: within one
// Server a cold point is one miss and one compute and its repeat is a
// memo hit that moves no store counter; a fresh Server over the same
// store answers it with exactly one store hit.
func TestPointStoreLookups(t *testing.T) {
	s := testServer(t)
	st := s.cfg.Scale.Cache
	const path = "/points?arch=baseline&load=0.5"
	for _, want := range []cache.Counters{{Misses: 1, Computes: 1, Puts: 1}, {}} {
		if got := storeMoved(st, func() { getOK(t, s, path) }); got != want {
			t.Errorf("store counters moved by %+v, want %+v", got, want)
		}
	}
	fresh := New(s.cfg)
	if got, want := storeMoved(st, func() { getOK(t, fresh, path) }), (cache.Counters{Hits: 1}); got != want {
		t.Errorf("fresh server: store counters moved by %+v, want %+v", got, want)
	}
}

// TestPointMemo pins the memo's contract for points: one body whichever
// layer answers, one entry per parsed request, and a bound on point
// entries that never costs a figure entry or a recomputation.
func TestPointMemo(t *testing.T) {
	s := testServer(t)
	st := s.cfg.Scale.Cache
	cold := getOK(t, s, "/points?arch=baseline&load=0.5")
	var memo string
	if got := storeMoved(st, func() { memo = getOK(t, s, "/points?arch=baseline&load=0.50") }); got != (cache.Counters{}) {
		t.Errorf("load=0.50 after load=0.5 moved the store by %+v, want a memo hit", got)
	}
	if points, _ := memoCounts(t, s); points != 1 {
		t.Errorf("load=0.5 and load=0.50 hold %d memo entries, want 1", points)
	}
	stored := getOK(t, New(s.cfg), "/points?arch=baseline&load=0.5")
	if memo != cold || stored != cold {
		t.Fatalf("cold, memo and store bodies differ:\n%s%s%s", cold, memo, stored)
	}

	defer func(n int) { pointMemoCap = n }(pointMemoCap)
	pointMemoCap = 3
	s = testServer(t)
	st = s.cfg.Scale.Cache
	for _, f := range []string{"text", "csv", "json"} {
		getOK(t, s, "/figures/fig2?format="+f)
	}
	bodies := map[float64]string{}
	for i, load := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6} {
		bodies[load] = getOK(t, s, fmt.Sprintf("/points?arch=baseline&load=%g", load))
		points, figures := memoCounts(t, s)
		if points > 3 || figures != 3 {
			t.Fatalf("after %d points the memo holds %d points and %d figures, want <= 3 and 3", i+1, points, figures)
		}
	}
	s.mu.RLock()
	var evicted []float64
	for load := range bodies {
		if _, ok := s.rendered[memoKey{arch: router.ArchBaseline, load: load}]; !ok {
			evicted = append(evicted, load)
		}
	}
	s.mu.RUnlock()
	if len(evicted) != 3 {
		t.Fatalf("%d of 6 points evicted with the cap at 3, want 3", len(evicted))
	}
	var again string
	path := fmt.Sprintf("/points?arch=baseline&load=%g", evicted[0])
	if got, want := storeMoved(st, func() { again = getOK(t, s, path) }), (cache.Counters{Hits: 1}); got != want {
		t.Errorf("evicted point: store counters moved by %+v, want %+v", got, want)
	}
	if again != bodies[evicted[0]] {
		t.Errorf("evicted point's body changed on the store hit")
	}
}

// TestMemoConcurrent has two goroutines read and insert points and
// figures at once, with a cap that forces evictions; run it under -race.
func TestMemoConcurrent(t *testing.T) {
	defer func(n int) { pointMemoCap = n }(pointMemoCap)
	pointMemoCap = 2
	s := testServer(t)
	paths := []string{"/figures/fig2", "/figures/fig2?format=csv", "/figures/fig2?format=json"}
	for _, load := range []string{"0.1", "0.2", "0.3", "0.4"} {
		paths = append(paths, "/points?arch=baseline&load="+load)
	}
	var mu sync.Mutex
	first := map[string]string{}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10*len(paths); i++ {
				path := paths[(i*(g+1))%len(paths)]
				code, body, _ := get(t, s, path)
				mu.Lock()
				if want, seen := first[path]; code != 200 || seen && body != want {
					t.Errorf("GET %s: code %d, body equal to the first: %t", path, code, !seen || body == want)
				} else if !seen {
					first[path] = body
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if points, figures := memoCounts(t, s); points > 2 || figures != 3 {
		t.Errorf("memo holds %d points and %d figures, want <= 2 and 3", points, figures)
	}
}

// TestPointSharesFigurePoints: /points runs the figure generators' point,
// so one that a figure computed is a single store hit and no compute.
func TestPointSharesFigurePoints(t *testing.T) {
	s := testServer(t)
	getOK(t, s, "/figures/fig13")
	got := storeMoved(s.cfg.Scale.Cache, func() { getOK(t, s, "/points?arch=baseline&load=0.2") })
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
