package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"highradix/internal/cache"
	"highradix/internal/router"
	"highradix/internal/serve"
	"highradix/internal/sim"
)

// serveFigures are the four figures serve_mix computes cold and then
// reads warm in three formats.
var serveFigures = []string{"fig9", "fig13", "fig17a", "table1"}

// spanHeader carries the client span's index and lane to the timing
// middleware of a traced run, so the handler span nests under the GET
// that caused it.
const spanHeader = "X-Bench-Span"

// client is one keep-alive connection's worth of closed-loop load.
type client struct {
	lane int
	base string
	hc   *http.Client
	p    *pass
	mu   *sync.Mutex // guards p and ref across the two clients
	ref  map[string][]byte
}

// pointJSON is the part of a /points body the harness reads.
type pointJSON struct {
	Packets int64 `json:"packets"`
	Cycles  int64 `json:"cycles"`
}

// get issues one request and returns its body and client-observed
// latency. Every response must be 200, and every body except
// /metrics (live counters) must equal the first body seen for its
// URL — in particular a warm body must equal the cold one, which is
// why the cold phase asks for figures by a URL the warm phase repeats.
func (c *client) get(path string) ([]byte, time.Duration) {
	span := c.p.tr.begin("bench", "GET "+path, -1, 0, c.lane)
	t0 := time.Now()
	req, err := http.NewRequest("GET", c.base+path, nil)
	var body []byte
	status := 0
	if err == nil {
		if span >= 0 {
			req.Header.Set(spanHeader, fmt.Sprintf("%d %d", span, c.lane))
		}
		var resp *http.Response
		if resp, err = c.hc.Do(req); err == nil {
			status = resp.StatusCode
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
	}
	d := time.Since(t0)
	c.p.tr.end(span)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.p.attempted++
	switch {
	case err != nil:
		c.p.fail("GET %s: %v", path, err)
	case status != http.StatusOK:
		c.p.fail("GET %s: status %d", path, status)
	case path == "/metrics":
	default:
		if want, seen := c.ref[path]; !seen {
			c.ref[path] = body
		} else if !bytes.Equal(want, body) {
			c.p.fail("GET %s: body differs from the first response for this URL", path)
		}
	}
	return body, d
}

// both runs fn on the two clients concurrently and returns the wall.
func both(cs [2]*client, fn func(c *client)) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

// shareOut has both clients pull paths from one ordered list, each
// taking the next when its previous request completes.
func shareOut(cs [2]*client, paths []string, each func(body []byte, d time.Duration)) time.Duration {
	var next atomic.Int64
	mu := cs[0].mu // each records into the pass, like get
	return both(cs, func(c *client) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(paths) {
				return
			}
			body, d := c.get(paths[i])
			if each != nil {
				mu.Lock()
				each(body, d)
				mu.Unlock()
			}
		}
	})
}

func pointPath(arch router.Arch, load float64) string {
	return fmt.Sprintf("/points?arch=%s&load=%.2f", arch, load)
}

func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

func setupServe(e env) (func(*pass), error) {
	return servePass(e, 1, 1)
}

// servePass builds serve_mix's pass. The service runs at Quick (what
// hrsweepd -quick serves) with its phases multiplied by factor, and the
// warm phase issues requests times the issue's scaled request count;
// the workload uses 1 and 1, the per-layer ledger a shorter pass.
// Everything a pass needs that does not depend on the service's state
// is prepared here; the store, server and clients are fresh in every
// pass, because the cold phase needs them empty, and their creation is
// accounted as set-up.
func servePass(e env, factor, requests float64) (func(*pass), error) {
	scale := figScale(e, factor)
	archs := router.Registered()
	var coldPoints, mixedPoints []string
	for _, a := range archs {
		// Off the figures' load grid, so no figure pre-warms a point.
		for l := 0; l < 9; l++ {
			coldPoints = append(coldPoints, pointPath(a, 0.05+0.1*float64(l)))
		}
		for l := 0; l < 6; l++ {
			mixedPoints = append(mixedPoints, pointPath(a, 0.07+0.1*float64(l)))
		}
	}
	mixedPoints = mixedPoints[:40]
	var figurePaths, warmFigures []string
	for _, f := range serveFigures {
		figurePaths = append(figurePaths, "/figures/"+f+"?format=text")
		for _, format := range []string{"text", "csv", "json"} {
			warmFigures = append(warmFigures, "/figures/"+f+"?format="+format)
		}
	}
	warmPerClient := int(float64(e.n(200000))*requests) + 1
	// The request order of each client comes from the seed: 70% figure
	// reads (render-memo hits), 25% warmed points (store read and
	// decode, not memoised), 5% health and metrics.
	var orders [2][]string
	for ci := range orders {
		rng := sim.NewRNG(e.seed ^ uint64(0x5eed<<8+ci))
		orders[ci] = make([]string, warmPerClient)
		for i := range orders[ci] {
			switch u := rng.Float64(); {
			case u < 0.70:
				orders[ci][i] = warmFigures[rng.Intn(len(warmFigures))]
			case u < 0.95:
				orders[ci][i] = coldPoints[rng.Intn(len(coldPoints))]
			case u < 0.975:
				orders[ci][i] = "/healthz"
			default:
				orders[ci][i] = "/metrics"
			}
		}
	}
	return func(p *pass) {
		t0 := time.Now()
		dir, err := os.MkdirTemp(e.dir, "store-")
		if err != nil {
			p.attempted++
			p.fail("store: %v", err)
			return
		}
		defer os.RemoveAll(dir)
		st, err := cache.Open(dir)
		if err != nil {
			p.attempted++
			p.fail("store: %v", err)
			return
		}
		scale := scale
		scale.Cache = st
		srv := serve.New(serve.Config{Scale: scale, MaxInflight: 2})
		handler := srv.Handler()
		if p.tr != nil {
			inner := handler
			handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				parent, lane := -1, 0
				fmt.Sscanf(r.Header.Get(spanHeader), "%d %d", &parent, &lane)
				span := p.tr.begin("serve", r.URL.Path, parent, 0, 2+lane)
				inner.ServeHTTP(w, r)
				p.tr.end(span)
			})
		}
		ts := httptest.NewServer(handler)
		defer ts.Close()
		var mu sync.Mutex
		ref := map[string][]byte{}
		var cs [2]*client
		for i := range cs {
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			cs[i] = &client{lane: i, base: ts.URL, hc: &http.Client{Transport: tr}, p: p, mu: &mu, ref: ref}
		}
		p.add(time.Since(t0), inPre)
		p.probe()

		// Cold phase: four figures, then the 63-point grid, all computed
		// and written through the service.
		coldFigs := shareOut(cs, figurePaths, nil)
		p.add(coldFigs, inWall|inCold)
		p.probe()
		var coldLat []time.Duration
		coldPts := shareOut(cs, coldPoints, func(body []byte, d time.Duration) {
			coldLat = append(coldLat, d)
			var pj pointJSON
			if err := json.Unmarshal(body, &pj); err != nil {
				p.fail("/points body: %v", err)
				return
			}
			p.flitHops += float64(pj.Packets)
			p.cycles += pj.Cycles - scale.Warmup
		})
		p.add(coldPts, inWall|inCold|inSim)
		p.probe()

		// Warm phase: every response comes from the render memo or the
		// store.
		lats := [2][]time.Duration{}
		warm := both(cs, func(c *client) {
			ls := make([]time.Duration, 0, warmPerClient)
			for _, path := range orders[c.lane] {
				_, d := c.get(path)
				ls = append(ls, d)
			}
			lats[c.lane] = ls
		})
		lat := append(lats[0], lats[1]...)
		p.steadyOps = len(lat)
		p.add(warm, inWall|inSteady)
		p.add(quantile(lat, 0.5), isP50)
		p.probe()

		// Mixed phase: one client writes (40 new cold points back to
		// back) while the other reads warm figures until it finishes.
		var done atomic.Bool
		var readLat, mixedColdLat []time.Duration
		mixed := both(cs, func(c *client) {
			if c.lane == 0 {
				for _, path := range mixedPoints {
					_, d := c.get(path)
					mixedColdLat = append(mixedColdLat, d)
				}
				done.Store(true)
				return
			}
			for i := 0; !done.Load(); i++ {
				_, d := c.get(warmFigures[i%len(warmFigures)])
				readLat = append(readLat, d)
			}
		})
		p.add(mixed, inWall)
		p.probe()

		// Digest: the simulated bytes are the cold bodies, in
		// declaration order (figures, cold grid, mixed points).
		for _, paths := range [][]string{figurePaths, coldPoints, mixedPoints} {
			for _, path := range paths {
				p.digest.Write(ref[path])
			}
		}
		p.extra["serve.warm_p99_us"] = us(quantile(lat, 0.99))
		p.extra["serve.read_p99_during_cold_us"] = us(quantile(readLat, 0.99))
		p.extra["serve.cold_point_ms_p50"] = us(quantile(append(coldLat, mixedColdLat...), 0.5)) / 1e3
		p.extra["mixed_s"] = mixed.Seconds()
		m := srv.Metrics()
		if m.Errors != 0 {
			p.fail("service counted %d error responses", m.Errors)
		}
	}, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
