package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// set is one execution of the untraced reps: every workload -reps
// times, each in its own process.
type set struct {
	Runs   map[string][]*report `json:"runs"` // workload -> reps
	Failed []string             `json:"failed,omitempty"`
}

// child re-executes this binary for one run, so every run has its own
// heap and its own VmHWM, and reads the report it wrote.
func child(o options, workload, out string, stderr io.Writer) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(out, "report.json")
	// A reused -out must not lend a crashed child its predecessor's report.
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", "0", "-out", out)
	cmd.Stderr = stderr
	// A run that found a correctness failure exits 1 after writing its
	// report; the report carries the failure, so only a missing report
	// is an error here.
	runErr := cmd.Run()
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%s: no report (%v)", workload, runErr)
	}
	rep := new(report)
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return rep, nil
}

func runSet(o options, out, label string, stdout, stderr io.Writer) (*set, error) {
	s := &set{Runs: map[string][]*report{}}
	for _, w := range workloads {
		for rep := 1; rep <= o.reps; rep++ {
			fmt.Fprintf(stdout, "%s%s rep %d/%d ...\n", label, w.name, rep, o.reps)
			r, err := child(o, w.name, filepath.Join(out, fmt.Sprintf("%s%s-rep%d", label, w.name, rep)), stderr)
			if err != nil {
				return nil, err
			}
			s.Runs[w.name] = append(s.Runs[w.name], r)
		}
	}
	for _, w := range workloads {
		s.Failed = append(s.Failed, failures(s.Runs[w.name], s.Runs[w.name][0].SimDigest)...)
	}
	if a, b := s.Runs["net_serial"], s.Runs["net_shard2"]; a[0].SimDigest != b[0].SimDigest {
		s.Failed = append(s.Failed, "net_shard2: result digest differs from net_serial's")
	}
	return s, nil
}

// failures lists the runs' own failures and every run whose simulated
// results are not the ones digest stands for.
func failures(runs []*report, digest string) []string {
	var out []string
	for _, r := range runs {
		kind := "run"
		if r.Traced {
			kind = "traced pass"
		}
		for _, f := range r.Failures {
			out = append(out, fmt.Sprintf("%s %s: %s", r.Workload, kind, f))
		}
		if r.SimDigest != digest {
			out = append(out, fmt.Sprintf("%s %s: sim_digest differs from rep 1's", r.Workload, kind))
		}
	}
	return out
}

// tracedSet is the traced pass of the default mode: every workload's
// pass untraced and traced, then the per-layer ledger once, in this
// process and into one trace.json.
type tracedSet struct {
	Workloads []*report `json:"workloads"`
	Ledger    *report   `json:"ledger"`
	Failed    []string  `json:"failed,omitempty"`
}

func runTraced(o options, root, out string, a *set, stdout io.Writer) (*tracedSet, error) {
	e := env{seed: o.seed, scale: 1, dir: filepath.Join(out, "tmp"), root: root, procs: runtime.GOMAXPROCS(0)}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	tr := newTracer()
	ts := &tracedSet{Ledger: newReport("", e, true)}
	for _, w := range workloads {
		fmt.Fprintf(stdout, "%s traced ...\n", w.name)
		r, err := tracePasses(w, e, o.seconds, tr)
		if err != nil {
			return nil, err
		}
		ts.Workloads = append(ts.Workloads, r)
		ts.Failed = append(ts.Failed, failures([]*report{r}, a.Runs[w.name][0].SimDigest)...)
	}
	fmt.Fprintf(stdout, "per-layer ledger ...\n")
	from := tr.len()
	addLedger(ts.Ledger, runLedger(e, tr))
	ts.Ledger.Layers = tr.selfTimes(from)
	ts.Failed = append(ts.Failed, ts.Ledger.Failures...) // each already says "ledger:"
	return ts, tr.writeChrome(filepath.Join(out, "trace.json"))
}

// stat is the median over reps of one metric with its range.
type stat struct{ Median, Min, Max float64 }

func statOf(reps []*report, name string) stat {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.Result.Metrics[name].Value
	}
	sort.Float64s(xs)
	return stat{Median: median(xs), Min: xs[0], Max: xs[len(xs)-1]}
}

func (s *set) print(w io.Writer) {
	fmt.Fprintf(w, "\n== end-to-end: median over reps [min .. max]; * = restates wall_s on this workload ==\n")
	for _, wl := range workloads {
		reps := s.Runs[wl.name]
		fmt.Fprintf(w, "-- %s (%d reps, %d passes in rep 1)\n", wl.name, len(reps), reps[0].Passes)
		for _, d := range endToEnd {
			st := statOf(reps, d.Name)
			mark := " "
			if !d.on(wl.name) {
				mark = "*"
			}
			fmt.Fprintf(w, "%-17s%s %14.6g [%.6g .. %.6g] %s\n", d.Name, mark, st.Median, st.Min, st.Max, d.Unit)
		}
		failed, attempted := 0, 0
		for _, r := range reps {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
		fmt.Fprintf(w, "%-18s %14.6g fraction (%d of %d operations)\n", "fail_share", float64(failed)/float64(attempted), failed, attempted)
		if v, ok := reps[0].Info[paperGapMetric]; ok {
			fmt.Fprintf(w, "%-18s %14.6g pp (simulated; six pairs, see README)\n", "paper_abs_err_pp", v)
		}
		fmt.Fprintf(w, "%-18s %s\n", "sim_digest", reps[0].SimDigest)
	}
	a, b := s.Runs["net_serial"], s.Runs["net_shard2"]
	fmt.Fprintf(w, "-- net_serial.wall_s / net_shard2.wall_s = %.4g (ROADMAP item 3 asks for 1.5)\n",
		statOf(a, "wall_s").Median/statOf(b, "wall_s").Median)
	for _, f := range s.Failed {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

func (ts *tracedSet) print(w io.Writer) {
	fmt.Fprintf(w, "\n== per layer: one traced pass; -> the end-to-end metric (workload) it should move ==\n")
	for _, d := range perLayer {
		if d.Name == overheadMetric {
			for _, r := range ts.Workloads {
				fmt.Fprintf(w, "%-46s %14.6g %-6s on %s\n", d.Name, r.Result.Metrics[d.Name].Value, d.Unit, r.Workload)
			}
			continue
		}
		fmt.Fprintf(w, "%-46s %14.6g %-6s -> %s\n", d.Name, ts.Ledger.Result.Metrics[d.Name].Value, d.Unit, d.Moves)
	}
	fmt.Fprintf(w, "\n== self time per layer ==\n")
	for _, r := range append(append([]*report(nil), ts.Workloads...), ts.Ledger) {
		var parts []string
		for _, lt := range r.Layers {
			parts = append(parts, fmt.Sprintf("%s %.3gs", lt.Layer, lt.Self.Seconds()))
		}
		name := r.Workload
		if name == "" {
			name = "ledger"
		}
		fmt.Fprintf(w, "%-16s %s\n", name, strings.Join(parts, ", "))
	}
	for _, f := range ts.Failed {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

// historyLine is one line of the -history file.
type historyLine struct {
	Commit     string                        `json:"commit"`
	Date       string                        `json:"date"`
	GoVersion  string                        `json:"go_version"`
	NumCPU     int                           `json:"nproc"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	Seed       uint64                        `json:"seed"`
	Reps       int                           `json:"reps"`
	Seconds    float64                       `json:"seconds"`
	Medians    map[string]map[string]float64 `json:"medians"` // workload -> metric -> median
}

func appendHistory(path, root string, o options, s *set) error {
	line := historyLine{Commit: "unknown", Date: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Reps: o.reps, Seconds: o.seconds,
		Medians: map[string]map[string]float64{}}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil {
		line.Commit = strings.TrimSpace(string(b))
		// The run measured the working tree, which may be ahead of HEAD.
		status := exec.Command("git", "status", "--porcelain")
		status.Dir = root
		if b, err := status.Output(); err == nil && len(b) > 0 {
			line.Commit += "+uncommitted"
		}
	}
	for _, wl := range workloads {
		line.Medians[wl.name] = map[string]float64{}
		for _, d := range endToEnd {
			line.Medians[wl.name][d.Name] = statOf(s.Runs[wl.name], d.Name).Median
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fullReport is what the default mode writes to <out>/report.json.
type fullReport struct {
	A      *set       `json:"A"`
	B      *set       `json:"B,omitempty"` // -selfcheck only
	Traced *tracedSet `json:"traced"`
}

func full(o options, root, out string, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "bench: artefacts under %s\n", out)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var rep fullReport
	var err error
	if rep.A, err = runSet(o, out, "", stdout, stderr); err != nil {
		return fail(err)
	}
	rep.A.print(stdout)
	failed := len(rep.A.Failed) > 0
	if o.selfcheck {
		if rep.B, err = runSet(o, out, "B-", stdout, stderr); err != nil {
			return fail(err)
		}
		failed = failed || len(rep.B.Failed) > 0 || !selfcheck(rep.A, rep.B, stdout)
	}
	if rep.Traced, err = runTraced(o, root, out, rep.A, stdout); err != nil {
		return fail(err)
	}
	rep.Traced.print(stdout)
	failed = failed || len(rep.Traced.Failed) > 0
	if err := writeJSON(filepath.Join(out, "report.json"), rep); err != nil {
		return fail(err)
	}
	if failed {
		if o.history != "" {
			fmt.Fprintf(stdout, "bench: the set failed, nothing appended to %s\n", o.history)
		}
		return 1
	}
	if o.history != "" {
		if err := appendHistory(o.history, root, o, rep.A); err != nil {
			return fail(err)
		}
	}
	return 0
}

// selfcheck compares two sets of the same binary. The simulated
// statistics must be identical. Every end-to-end median on a workload
// the metric is defined for must agree within the metric's bound, the
// difference taken against the smaller median so that neither order of
// the sets passes what the other fails. A pair whose own reps spread
// wider than the bound cannot show agreement either way and is reported
// as unresolved, not failed.
func selfcheck(a, b *set, w io.Writer) bool {
	ok := true
	unresolved := 0
	fmt.Fprintf(w, "\n== selfcheck: set B against set A ==\n")
	for _, wl := range workloads {
		if a.Runs[wl.name][0].SimDigest != b.Runs[wl.name][0].SimDigest {
			fmt.Fprintf(w, "FAIL %s: sim_digest differs between the sets\n", wl.name)
			ok = false
		}
		for _, d := range endToEnd {
			sa, sb := statOf(a.Runs[wl.name], d.Name), statOf(b.Runs[wl.name], d.Name)
			diff := math.Abs(sa.Median-sb.Median) / math.Min(sa.Median, sb.Median)
			spread := math.Max((sa.Max-sa.Min)/sa.Median, (sb.Max-sb.Min)/sb.Median)
			verdict := "ok"
			switch {
			case !d.on(wl.name):
				verdict = "restated, not gated"
			case diff > d.Bound && spread > d.Bound:
				verdict = "UNRESOLVED"
				unresolved++
			case diff > d.Bound:
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-16s %-18s A %-12.6g B %-12.6g differ %5.2f%%  reps spread %5.2f%%  bound %2.0f%%  %s\n",
				wl.name, d.Name, sa.Median, sb.Median, 100*diff, 100*spread, 100*d.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "selfcheck: %d unresolved (reps spread wider than the bound)\n", unresolved)
	return ok
}
