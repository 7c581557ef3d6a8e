// Command bench is the repository's layered end-to-end benchmark: seven
// closed-loop workloads over the simulator's public layers, eight
// end-to-end metrics per workload, and a traced pass that reports a
// per-layer ledger. BENCHMARK.json at the module root declares the
// metric names and bounds; README.md in this directory explains every
// choice.
//
//	go run ./bench                                  # every workload, 3 reps, then one traced pass
//	go run ./bench -workload NAME -seed N -seconds S -trace 0|1   # one run, one JSON line last
//	go run ./bench -selfcheck                       # the reps twice; fail if medians disagree beyond the bounds
//
// The harness imports highradix/internal/* directly and times calls
// into their exported functions from outside; it changes no simulator
// code.
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// outRoot is where the harness keeps everything it writes when -out is
// not given: a directory in the working directory, listed in
// .gitignore, because a benchmark run may write only inside its
// checkout.
const outRoot = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	setupOnly bool
	reps      int
	out       string
	history   string
	selfcheck bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload once and print one JSON result line last (default: every workload, -reps times, then the traced pass)")
	fs.Uint64Var(&o.seed, "seed", 1, "drives every simulation seed, serve_mix's request order and the arbiter request vectors")
	fs.Float64Var(&o.seconds, "seconds", 12, "how long one run repeats its workload's pass")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: set the -workload up and exit; a run times this from exec for setup_s")
	fs.IntVar(&o.reps, "reps", 3, "runs per workload in the default mode; medians are reported")
	fs.StringVar(&o.out, "out", "", "directory for report.json, trace.json and temporary stores (default: a fresh directory under ./"+outRoot+")")
	fs.StringVar(&o.history, "history", "", "append one JSON line with every end-to-end median to this file (e.g. bench/history.jsonl)")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the reps twice and fail if an end-to-end median differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.reps < 1 || (o.setupOnly && o.workload == "") {
		fmt.Fprintln(stderr, "bench: bad arguments")
		return 2
	}
	// go.mod says go 1.22, which ignores container CPU quotas; no
	// workload uses more than two threads, so pin and record.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.setupOnly {
		return setupOnly(o, root, procs, stderr)
	}
	out, cleanup, err := outDir(o.out, o.workload != "")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer cleanup()
	if o.workload != "" {
		return single(o, root, out, procs, stdout, stderr)
	}
	return full(o, root, out, stdout, stderr)
}

// moduleRoot finds the directory holding this module's go.mod, walking
// up from the working directory and then from this source file, so the
// goldens are found wherever the harness is started from.
func moduleRoot() (string, error) {
	starts := []string{"."}
	if _, file, _, ok := runtime.Caller(0); ok {
		starts = append(starts, filepath.Dir(file))
	}
	for _, start := range starts {
		dir, err := filepath.Abs(start)
		if err != nil {
			continue
		}
		for {
			if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module highradix\n") {
				return dir, nil
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				break
			}
			dir = parent
		}
	}
	return "", errors.New("cannot find the highradix module root (go.mod) above the working directory")
}

// outDir resolves the artefact directory. An explicit -out is kept; a
// default one is kept after a full report and removed after a single
// run, which would otherwise leave one directory per driver run.
func outDir(flagOut string, singleRun bool) (dir string, cleanup func(), err error) {
	if flagOut != "" {
		return flagOut, func() {}, os.MkdirAll(flagOut, 0o755)
	}
	if err := os.MkdirAll(outRoot, 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(outRoot, "out-")
	if err != nil {
		return "", nil, err
	}
	if singleRun {
		return dir, func() { os.RemoveAll(dir) }, nil
	}
	return dir, func() {}, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single run prints: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what a single run writes to <out>/report.json: the result
// plus what the default mode prints beside it.
type report struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Passes     int                `json:"passes"`
	PassWalls  []float64          `json:"pass_wall_s"` // timed section of each pass, in order
	SimDigest  string             `json:"sim_digest"`
	Failures   []string           `json:"failures,omitempty"`
	Info       map[string]float64 `json:"info,omitempty"`
	Layers     []layerTime        `json:"layer_self_time,omitempty"`
	Result     result             `json:"result"`
}

// startupReps is how often a run starts itself with -setup-only.
const startupReps = 31

// setupOnly is the -setup-only child: everything a run does between
// exec and its first pass, then exit.
func setupOnly(o options, root string, procs int, stderr io.Writer) int {
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	if _, err := w.setup(env{seed: o.seed, scale: 1, root: root, procs: procs}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// startup times this binary from exec to exit in -setup-only mode,
// startupReps times: process start, runtime and package initialisation,
// flag parsing, module-root lookup and the workload's set-up function.
// Timed from outside because the part before main cannot be timed from
// inside, repeated because one process start is a few noisy
// milliseconds, and each divided by the host factor probed around it
// like every other time (host.go).
func startup(o options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	durs := make([]float64, startupReps)
	before := hostSlowdown()
	for i := range durs {
		cmd := exec.Command(self, "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-setup-only")
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		d := time.Since(t0).Seconds()
		after := hostSlowdown()
		durs[i] = d / ((before + after) / 2)
		before = after
	}
	return durs, nil
}

func single(o options, root, out string, procs int, stdout, stderr io.Writer) int {
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	e := env{seed: o.seed, scale: 1, dir: filepath.Join(out, "tmp"), root: root, procs: procs}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var rep *report
	var err error
	if o.trace == 1 {
		rep, err = measureTraced(w, e, o.seconds, out)
	} else {
		var starts []float64
		if starts, err = startup(o); err == nil {
			rep, err = measure(w, e, o.seconds, median(starts))
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep.Seconds = o.seconds
	printReport(stdout, rep)
	if err := writeJSON(filepath.Join(out, "report.json"), rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func newReport(name string, e env, traced bool) *report {
	return &report{Workload: name, Seed: e.seed, Traced: traced,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: e.procs,
		Info: map[string]float64{}, Result: result{Metrics: map[string]metricValue{}}}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// finish folds the passes' failures and digests into the report and
// runs the workload's cross-check.
func finish(rep *report, w workload, e env, passes []*pass) {
	first := passes[0].digest.Sum(nil)
	rep.SimDigest = hex.EncodeToString(first)
	for i, p := range passes {
		rep.Result.Attempted += p.attempted
		rep.Failures = append(rep.Failures, p.failures...)
		rep.Result.Failed += len(p.failures)
		if i > 0 && hex.EncodeToString(p.digest.Sum(nil)) != rep.SimDigest {
			rep.Failures = append(rep.Failures, fmt.Sprintf("pass %d: sim_digest differs from the first pass's", i+1))
			rep.Result.Failed++
		}
	}
	if w.verify != nil {
		rep.Result.Attempted++
		if err := w.verify(e, first); err != nil {
			rep.Failures = append(rep.Failures, err.Error())
			rep.Result.Failed++
		}
	}
	rep.Passes = len(passes)
	for _, p := range passes {
		rep.PassWalls = append(rep.PassWalls, total(p.parts, inWall).Seconds())
	}
	rep.Result.Correct = rep.Result.Failed == 0 && rep.Result.Attempted > 0
}

// measure is one end-to-end run: set up, repeat the pass for seconds
// (at least twice when seconds > 0), report every timed part at its
// fastest over the passes. startS is the process's start-up time,
// measured by the caller.
func measure(w workload, e env, seconds, startS float64) (*report, error) {
	rep := newReport(w.name, e, false)
	runPass, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	var passes []*pass
	minPasses := 2
	if seconds <= 0 {
		minPasses = 1
	}
	for start := time.Now(); len(passes) < minPasses || time.Since(start).Seconds() < seconds; {
		collect()
		p := newPass(nil)
		p.probe()
		runPass(p)
		passes = append(passes, p)
	}
	// Before the cross-check, which may run a second implementation in
	// this process.
	rss := peakRSSMB()
	finish(rep, w, e, passes)
	parts := settle(passes)
	sec := func(in sums) float64 { return total(parts, in).Seconds() }
	first := passes[0]
	cold := sec(inCold)
	if cold == 0 {
		cold = sec(inPre | inWall)
	}
	values := map[string]float64{
		"setup_s":          startS + sec(inPre),
		"wall_s":           sec(inWall),
		"ns_per_flit_hop":  1e9 * sec(inSim) / first.flitHops,
		"sim_cycles_per_s": float64(first.cycles) / sec(inSim),
		"peak_rss_mb":      rss,
		"req_per_s":        float64(first.steadyOps) / sec(inSteady),
		"warm_p50_us":      us(p50(parts)),
		"cold_s":           cold,
	}
	for _, d := range endToEnd {
		v := values[d.Name]
		if !(v > 0) || v > 1e300 {
			rep.Failures = append(rep.Failures, fmt.Sprintf("metric %s has no positive value (%v)", d.Name, v))
			rep.Result.Failed++
			rep.Result.Correct = false
			v = 0
		}
		rep.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rep.Info["warm_p50_samples"] = float64(first.steadyOps * len(passes))
	// Beside the reported, host-corrected times: the wall clock as it
	// read, and how much slower than the reference the host ran.
	var hosts []float64
	for _, p := range passes {
		for _, pt := range p.parts {
			hosts = append(hosts, pt.host)
		}
	}
	rep.Info["raw_wall_s"] = median(rep.PassWalls)
	rep.Info["host_slowdown"] = median(hosts)
	rep.Info["fail_share"] = float64(rep.Result.Failed) / float64(rep.Result.Attempted)
	for k, v := range passes[len(passes)-1].extra {
		rep.Info[k] = v
	}
	return rep, nil
}

const overheadMetric = "bench.trace_overhead_pct"

// tracePasses runs the workload's pass alternately untraced and traced
// into tr and reports the passes' digest, failures, layer self times
// and the tracing overhead (their difference).
func tracePasses(w workload, e env, seconds float64, tr *tracer) (*report, error) {
	rep := newReport(w.name, e, true)
	runPass, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	from := tr.len()
	var passes []*pass
	var plain, traced []float64
	// Untraced, traced, untraced, ...: a third pass when the first two
	// fit in half the window, so the process's cold first pass can be
	// left out of the comparison.
	for start := time.Now(); len(passes) < 2 || (len(passes) < 3 && time.Since(start).Seconds() < 0.5*seconds); {
		var t *tracer
		if len(passes)%2 == 1 {
			t = tr
		}
		collect()
		p := newPass(t)
		p.probe()
		runPass(p)
		passes = append(passes, p)
		if t == nil {
			plain = append(plain, total(p.parts, inWall).Seconds())
		} else {
			traced = append(traced, total(p.parts, inWall).Seconds())
		}
	}
	if len(plain) > 1 {
		plain = plain[1:]
	}
	finish(rep, w, e, passes)
	if base := median(plain); base > 0 {
		rep.Result.Metrics[overheadMetric] = metricValue{Value: 100 * (median(traced) - base) / base, Unit: "%"}
	}
	rep.Layers = tr.selfTimes(from)
	return rep, nil
}

// addLedger folds the per-layer ledger into a traced report: every
// per-layer metric except the tracing overhead, which is the passes'.
func addLedger(rep *report, l *ledger) {
	rep.Result.Attempted += len(perLayer)
	for _, f := range l.fails {
		rep.Failures = append(rep.Failures, "ledger: "+f)
		rep.Result.Failed++
	}
	for _, d := range perLayer {
		if d.Name == overheadMetric {
			continue
		}
		v, ok := l.m[d.Name]
		if !ok {
			rep.Failures = append(rep.Failures, "ledger: no value for "+d.Name)
			rep.Result.Failed++
		}
		rep.Result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rep.Result.Correct = rep.Result.Failed == 0
}

// measureTraced is one traced run: the workload's traced passes, then
// the per-layer ledger, all spans written to <out>/trace.json.
func measureTraced(w workload, e env, seconds float64, out string) (*report, error) {
	tr := newTracer()
	rep, err := tracePasses(w, e, seconds, tr)
	if err != nil {
		return nil, err
	}
	addLedger(rep, runLedger(e, tr))
	rep.Layers = tr.selfTimes(0)
	if err := tr.writeChrome(filepath.Join(out, "trace.json")); err != nil {
		return nil, err
	}
	return rep, nil
}

// peakRSSMB reads this process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// printReport prints every metric of one run by name with its unit.
func printReport(w io.Writer, rep *report) {
	mode := "end-to-end"
	decls := endToEnd
	if rep.Traced {
		mode, decls = "traced", perLayer
	}
	fmt.Fprintf(w, "# %s  %s  seed %d  passes %d  GOMAXPROCS %d of %d  %s\n",
		rep.Workload, mode, rep.Seed, rep.Passes, rep.GOMAXPROCS, rep.NumCPU, rep.GoVersion)
	for _, d := range decls {
		if m, ok := rep.Result.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-46s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	if !rep.Traced {
		fmt.Fprintf(w, "%-46s %16.6g fraction (%d of %d operations)\n", "fail_share", rep.Info["fail_share"], rep.Result.Failed, rep.Result.Attempted)
		fmt.Fprintf(w, "%-46s %16.0f latencies behind warm_p50_us\n", "samples", rep.Info["warm_p50_samples"])
		fmt.Fprintf(w, "%-46s %16.6g s as the clock read it; the host ran at %.4g x the reference time per probe\n", "raw_wall_s", rep.Info["raw_wall_s"], rep.Info["host_slowdown"])
		if v, ok := rep.Info[paperGapMetric]; ok {
			fmt.Fprintf(w, "%-46s %16.6g pp (simulated)\n", "paper_abs_err_pp", v)
		}
	}
	for _, lt := range rep.Layers {
		fmt.Fprintf(w, "self time %-36s %16.6g s in %d spans (total %.6g s)\n", lt.Layer, lt.Self.Seconds(), lt.Spans, lt.Total.Seconds())
	}
	fmt.Fprintf(w, "%-46s %s\n", "sim_digest", rep.SimDigest)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}
