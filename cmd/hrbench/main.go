// Command hrbench measures the per-cycle cost of each router
// architecture and writes the results as a JSON sweep. Each point runs
// the same single-router microbenchmark as BenchmarkStep* in the root
// package: uniform Bernoulli traffic at 60% load, measured with
// testing.Benchmark so ns/op, B/op and allocs/op come from the standard
// benchmark machinery.
//
// Usage:
//
//	hrbench                          # write BENCH_sweep.json
//	hrbench -out results.json -benchtime 2s   # or -benchtime 50000x
//	hrbench -check BENCH_sweep.json  # fail if allocs/op or the cache regressed
//
// The committed BENCH_sweep.json at the repository root records the
// sweep for the machine that generated it; ns/op is hardware-dependent
// and only comparable within one file, but allocs/op is deterministic,
// which is what -check enforces (CI runs it as a smoke test). The
// "cache" section records the result cache end to end: cold-vs-warm
// wall-clock for two Quick figures and the warm request throughput of
// the hrsweepd handler stack; -check replays the cold/warm cycle and
// fails if a warm rerun touches the store at all or differs by a byte.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"highradix"
	"highradix/internal/cache"
	"highradix/internal/experiments"
	"highradix/internal/network"
	"highradix/internal/serve"
	"highradix/internal/sim"
	"highradix/internal/traffic"
)

// point is one (architecture, radix) measurement. The event-wheel,
// idle-advance and loaded-network microbenchmarks reuse the struct with
// Arch "wheel" (Radix = pending events), "idle-gap"/"idle-percycle"
// (Radix = router radix) and "net-step" (Radix = Clos switch radix at
// 4096 terminals), so -check guards their allocs/op too.
type point struct {
	Arch        string  `json:"arch"`
	Radix       int     `json:"radix"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// figPoint records the wall-clock of one Quick-scale figure
// regeneration, run serially (Workers=1) so the number reflects
// simulation cost rather than host parallelism. Like ns/op it is
// machine-dependent and informational: -check never compares it.
type figPoint struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// cachePoint records one figure's generation wall-clock cold (fresh
// store: every point simulates and is written) and warm (everything
// served from the store). Both numbers are machine-dependent; the
// invariants behind them — byte-identical output, zero store misses on
// the warm pass — are enforced whenever the measurement runs.
type cachePoint struct {
	Name        string  `json:"name"`
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	Speedup     float64 `json:"speedup"`
}

// cacheBench is the result-cache section of the sweep file.
type cacheBench struct {
	Figures []cachePoint `json:"figures"`
	// WarmRequestsPerSec is the warm /figures throughput through the
	// full hrsweepd handler stack (mux, counters, memo), single client.
	WarmRequestsPerSec float64 `json:"warm_requests_per_sec"`
}

// sweep is the file format: the configurations swept plus enough
// metadata to interpret the numbers.
type sweep struct {
	Note      string      `json:"note"`
	Load      float64     `json:"load"`
	Benchtime string      `json:"benchtime"`
	Points    []point     `json:"points"`
	Figures   []figPoint  `json:"figures,omitempty"`
	Cache     *cacheBench `json:"cache,omitempty"`
}

// configs lists the swept (arch, radix) pairs, straight from the
// architecture registry: each registered architecture is measured at
// its descriptor's BenchRadices (the low-radix router at its design
// point 16 plus the high-radix operating point; the high-radix
// architectures at the paper's radix 64 and at 128 and 256 to expose
// scaling), so a newly registered architecture joins the sweep — and
// the -check allocation gate — by construction.
func configs() []highradix.RouterConfig {
	var cfgs []highradix.RouterConfig
	for _, arch := range highradix.Architectures() {
		d, _ := highradix.DescribeArch(arch)
		for _, radix := range d.BenchRadices {
			cfgs = append(cfgs, highradix.RouterConfig{Arch: arch, Radix: radix})
		}
	}
	return cfgs
}

const benchLoad = 0.6

// idleLoad is the offered load of the idle-advance points: low enough
// that whole stretches of cycles hold no event anywhere (at radix 64
// this is ~0.06 injections per cycle across all sources), which is the
// regime the event-wheel scheduler exists for. The gap point advances
// O(events); the per-cycle point walks every cycle. Their ns/op ratio
// is the repository's recorded event-driven speedup.
const idleLoad = 0.001

// wheelBenchmark measures one steady-state schedule+pop cycle of the
// event wheel at a fixed pending-event population, mirroring
// BenchmarkWheelSteady in internal/sim.
func wheelBenchmark(pending int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		w := sim.NewWheel(4096)
		rng := sim.NewRNG(1)
		var now int64
		for i := 0; i < pending; i++ {
			w.Schedule(now+1+int64(rng.Intn(16384)), int32(i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next, _ := w.NextAt()
			now = next
			w.PopDue(now, func(id int32) {
				w.Schedule(now+1+int64(rng.Intn(16384)), id)
			})
		}
	}
}

// idleBenchmark measures the per-simulated-cycle cost of a low-load
// run under the given injection mode; identical methodology to
// stepBenchmark apart from the load and mode.
func idleBenchmark(mode traffic.InjMode) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		_, err := highradix.Simulate(highradix.SimOptions{
			Router:         highradix.RouterConfig{Arch: highradix.Hierarchical, Radix: 64},
			Load:           idleLoad,
			WarmupCycles:   2000,
			MeasureCycles:  int64(b.N) + 1,
			DrainCycles:    1,
			Seed:           1,
			Injection:      mode,
			OnMeasureStart: b.ResetTimer,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// stepBenchmark adapts one router configuration to testing.Benchmark:
// identical methodology to benchRouterStep in the root package's
// bench_test.go, so hrbench numbers line up with `go test -bench Step`.
// OnMeasureStart restarts the timer at the first measured cycle, so the
// recorded ns/op and allocs/op are steady-state stepping cost; with
// construction excluded, allocs/op = 0 is an exact no-allocation claim
// for the hot path rather than an amortized approximation.
func stepBenchmark(cfg highradix.RouterConfig) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		_, err := highradix.Simulate(highradix.SimOptions{
			Router:         cfg,
			Load:           benchLoad,
			WarmupCycles:   2000,
			MeasureCycles:  int64(b.N) + 1,
			DrainCycles:    1,
			Seed:           1,
			OnMeasureStart: b.ResetTimer,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// netStepBenchmark measures one steady-state cycle of a 4096-terminal
// Figure 19 Clos network at half load: the serial network driver's loop
// body (generate, inject, step, recycle) without its statistics,
// mirroring BenchmarkLoadedNetworkStep in internal/network. The network
// is built and warmed before the timer starts, so allocs/op = 0 says the
// engine's hot path allocates nothing.
func netStepBenchmark(cfg network.Config) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		o := network.Options{Net: cfg, Load: 0.5, Seed: 1}.WithDefaults()
		topo, err := o.Topology()
		if err != nil {
			b.Fatal(err)
		}
		nw := network.NewNetwork(topo, o.RouteSeed())
		src := network.NewSources(topo, o.SourceOpts(topo), 0, topo.Routers())
		const warmup = 1000
		for now := int64(0); now < warmup+int64(b.N); now++ {
			if now == warmup {
				b.ResetTimer()
			}
			src.Generate(now, false)
			src.InjectAll(now, nw, nil)
			nw.Step(now)
			for _, f := range nw.Ejected() {
				src.Recycle(f)
			}
		}
	}
}

func runSweep(benchtime string, verbose bool) sweep {
	// testing.Benchmark sizes b.N from -test.benchtime, which only
	// exists after testing.Init registers the testing flags; outside
	// `go test` that is this program's job.
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "hrbench:", err)
		os.Exit(1)
	}
	s := sweep{
		Note:      "steady-state per-cycle router step cost at 60% uniform load (timer restarts after construction and warmup), plus event-wheel (radix = pending events), 2%-load idle-advance and 50%-load 4096-terminal network-cycle (net-step, radix = Clos switch radix) microbenchmarks; ns/op is machine-dependent, allocs/op is deterministic at a fixed Nx benchtime",
		Load:      benchLoad,
		Benchtime: benchtime,
	}
	for _, cfg := range configs() {
		full := cfg.WithDefaults()
		res := testing.Benchmark(stepBenchmark(cfg))
		p := point{
			Arch:        full.Arch.String(),
			Radix:       full.Radix,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "%-12s radix %-4d %12.1f ns/op %8d B/op %6d allocs/op\n",
				p.Arch, p.Radix, p.NsPerOp, p.BytesPerOp, p.AllocsPerOp)
		}
		s.Points = append(s.Points, p)
	}
	record := func(arch string, radix int, fn func(b *testing.B)) {
		res := testing.Benchmark(fn)
		p := point{
			Arch:        arch,
			Radix:       radix,
			Iterations:  res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			BytesPerOp:  res.AllocedBytesPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "%-12s %-9d %12.1f ns/op %8d B/op %6d allocs/op\n",
				p.Arch, p.Radix, p.NsPerOp, p.BytesPerOp, p.AllocsPerOp)
		}
		s.Points = append(s.Points, p)
	}
	for _, pending := range []int{1024, 8192, 65536} {
		record("wheel", pending, wheelBenchmark(pending))
	}
	record("idle-percycle", 64, idleBenchmark(traffic.InjPerCycle))
	record("idle-gap", 64, idleBenchmark(traffic.InjGap))
	for _, cfg := range []network.Config{{Radix: 64, Digits: 2}, {Radix: 16, Digits: 3}} {
		record("net-step", cfg.Radix, netStepBenchmark(cfg))
	}
	return s
}

// shardWorkers is the worker count fig19-sharded is timed at: one per
// CPU up to the 2 the end-to-end benchmark's net_shard2 runs. More
// workers than CPUs would time the scheduler, not the shard layer.
func shardWorkers() int { return min(runtime.GOMAXPROCS(0), 2) }

// figureTimings times the Quick-scale regeneration of the figures whose
// wall-clock the repository tracks (the cheapest single-router figure
// and the Clos-network figure), serially (Workers=1), one run each. The
// network figure is timed twice — through the serial network driver and
// through the sharded runner at shardWorkers — so the file records the
// A/B wall-clock of the shard layer on byte-identical output.
func figureTimings(verbose bool) []figPoint {
	base := experiments.Quick
	base.Workers = 1
	serial := base
	serial.NetWorkers = 0
	sharded := base
	sharded.NetWorkers = shardWorkers()
	runs := []struct {
		label string
		exp   string
		scale experiments.Scale
	}{
		{"fig9", "fig9", serial},
		{"fig19", "fig19", serial},
		{"fig19-sharded", "fig19", sharded},
	}
	var out []figPoint
	for _, r := range runs {
		gen, err := experiments.ByName(r.exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hrbench:", err)
			os.Exit(1)
		}
		t0 := time.Now()
		if _, err := gen(r.scale); err != nil {
			fmt.Fprintln(os.Stderr, "hrbench:", err)
			os.Exit(1)
		}
		p := figPoint{Name: r.label, Seconds: time.Since(t0).Seconds()}
		if verbose {
			fmt.Fprintf(os.Stderr, "%-14s quick scale %12.2f s\n", p.Name, p.Seconds)
		}
		out = append(out, p)
	}
	return out
}

// cacheTimings measures the content-addressed result cache end to end
// against a fresh on-disk store: each figure generates twice — cold
// (simulating and populating the store) and warm (served from it) —
// and warm service throughput is driven through hrsweepd's full
// handler stack. The wall-clock numbers are informational like ns/op,
// but the invariants are not: a warm rerun that records any store miss
// or differs from the cold output by a byte is an error, which is what
// `-check` relies on.
func cacheTimings(verbose bool) (*cacheBench, error) {
	dir, err := os.MkdirTemp("", "hrbench-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := cache.Open(dir)
	if err != nil {
		return nil, err
	}
	scale := experiments.Quick
	scale.Workers = 1
	scale.Cache = st
	bench := &cacheBench{}
	for _, name := range []string{"fig9", "fig19"} {
		t0 := time.Now()
		cold, hit, err := experiments.TableBytes(name, scale)
		if err != nil {
			return nil, fmt.Errorf("%s cold: %w", name, err)
		}
		coldSec := time.Since(t0).Seconds()
		if hit {
			return nil, fmt.Errorf("%s: cold run against a fresh store reported a cache hit", name)
		}
		missesAfterCold := st.Counters().Misses
		t0 = time.Now()
		warm, hit, err := experiments.TableBytes(name, scale)
		if err != nil {
			return nil, fmt.Errorf("%s warm: %w", name, err)
		}
		warmSec := time.Since(t0).Seconds()
		if !hit {
			return nil, fmt.Errorf("%s: warm rerun missed the figure cache", name)
		}
		if d := st.Counters().Misses - missesAfterCold; d != 0 {
			return nil, fmt.Errorf("%s: warm rerun recorded %d store misses, want 0", name, d)
		}
		if !bytes.Equal(cold, warm) {
			return nil, fmt.Errorf("%s: warm rerun is not byte-identical to the cold run", name)
		}
		p := cachePoint{Name: name, ColdSeconds: coldSec, WarmSeconds: warmSec,
			Speedup: coldSec / warmSec}
		if verbose {
			fmt.Fprintf(os.Stderr, "%-8s cache cold %9.3f s   warm %.6f s   %.0fx\n",
				p.Name, p.ColdSeconds, p.WarmSeconds, p.Speedup)
		}
		bench.Figures = append(bench.Figures, p)
	}
	// Warm throughput through the service: one request warms the render
	// memo, then every request is the microsecond path /metrics calls a
	// figure hit.
	srv := serve.New(serve.Config{Scale: scale, MaxInflight: 1, Timeout: time.Minute})
	do := func() int {
		req := httptest.NewRequest("GET", "/figures/fig9", nil)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return rec.Code
	}
	if code := do(); code != 200 {
		return nil, fmt.Errorf("warm-throughput warmup request: status %d", code)
	}
	const n = 5000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if code := do(); code != 200 {
			return nil, fmt.Errorf("warm request %d: status %d", i, code)
		}
	}
	bench.WarmRequestsPerSec = n / time.Since(t0).Seconds()
	if verbose {
		fmt.Fprintf(os.Stderr, "hrsweepd warm figure requests: %.0f req/s\n", bench.WarmRequestsPerSec)
	}
	return bench, nil
}

// check compares a fresh sweep against the committed baseline and
// reports every point whose allocs/op exceeds the recorded value.
// ns/op is deliberately not checked: it varies with the host.
func check(baseline sweep, current sweep) error {
	base := make(map[string]point, len(baseline.Points))
	for _, p := range baseline.Points {
		base[fmt.Sprintf("%s/%d", p.Arch, p.Radix)] = p
	}
	var failures []string
	for _, p := range current.Points {
		key := fmt.Sprintf("%s/%d", p.Arch, p.Radix)
		b, ok := base[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not in baseline file", key))
			continue
		}
		if p.AllocsPerOp > b.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: allocs/op regressed %d -> %d",
				key, b.AllocsPerOp, p.AllocsPerOp))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "hrbench: FAIL:", f)
		}
		return fmt.Errorf("%d allocation regression(s)", len(failures))
	}
	return nil
}

func main() {
	var (
		out       = flag.String("out", "BENCH_sweep.json", "output file ('-' for stdout)")
		benchtime = flag.String("benchtime", "20000x", "run time per benchmark point: a duration (1s) or a fixed iteration count (20000x); fixed counts make allocs/op machine-independent")
		checkFile = flag.String("check", "", "compare against this baseline sweep instead of writing; exit nonzero if allocs/op regressed")
		quiet     = flag.Bool("q", false, "suppress per-point progress on stderr")
	)
	flag.Parse()

	if *checkFile != "" {
		data, err := os.ReadFile(*checkFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hrbench:", err)
			os.Exit(1)
		}
		var baseline sweep
		if err := json.Unmarshal(data, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "hrbench: %s: %v\n", *checkFile, err)
			os.Exit(1)
		}
		// allocs/op amortizes one-time construction over b.N, so a
		// fair comparison must run exactly as many iterations as the
		// baseline did; honor an explicit -benchtime but default to
		// the recorded one.
		explicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "benchtime" {
				explicit = true
			}
		})
		if !explicit && baseline.Benchtime != "" {
			*benchtime = baseline.Benchtime
		}
		s := runSweep(*benchtime, !*quiet)
		if err := check(baseline, s); err != nil {
			fmt.Fprintln(os.Stderr, "hrbench:", err)
			os.Exit(1)
		}
		// The cache invariants (warm rerun misses the store zero times
		// and reproduces the cold bytes exactly) are machine-independent,
		// so -check replays them; the timings themselves are not compared.
		if _, err := cacheTimings(!*quiet); err != nil {
			fmt.Fprintln(os.Stderr, "hrbench: FAIL:", err)
			os.Exit(1)
		}
		fmt.Printf("hrbench: %d points checked against %s, no allocation or cache regressions\n",
			len(s.Points), *checkFile)
		return
	}

	s := runSweep(*benchtime, !*quiet)
	s.Figures = figureTimings(!*quiet)
	s.Note += fmt.Sprintf("; fig19-sharded ran at %d shard workers", shardWorkers())
	c, err := cacheTimings(!*quiet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrbench:", err)
		os.Exit(1)
	}
	s.Cache = c
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrbench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "hrbench:", err)
		os.Exit(1)
	}
	fmt.Printf("hrbench: wrote %d points to %s\n", len(s.Points), *out)
}
