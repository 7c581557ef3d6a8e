package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json at the module root from the declarations in this package")

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []boundedDecl  `json:"end_to_end"`
	PerLayer   []layerDecl    `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declared renders this package's declarations as BENCHMARK.json.
func declared() benchmarkFile {
	f := benchmarkFile{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: 12}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDecl{w.name, w.why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, boundedDecl{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, layerDecl{d.Name, d.Unit, d.Better})
	}
	return f
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to the declarations the
// harness reports from (go test ./bench -run TestBenchmarkJSON -update
// rewrites it).
func TestBenchmarkJSON(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(declared(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join(root, "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from the declarations in bench/; regenerate with -update")
	}
}

// TestSmoke runs every workload and the traced pass at 1/50 scale and
// checks that what is emitted is exactly what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	check := func(rep *report, want map[string]string) {
		t.Helper()
		for _, f := range rep.Failures {
			t.Errorf("%s: %s", rep.Workload, f)
		}
		if rep.Result.Failed != 0 || !rep.Result.Correct {
			t.Errorf("%s: fail_share is %d/%d, want 0", rep.Workload, rep.Result.Failed, rep.Result.Attempted)
		}
		for n, m := range rep.Result.Metrics {
			if !name.MatchString(n) {
				t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", rep.Workload, n)
			}
			if unit, ok := want[n]; !ok {
				t.Errorf("%s: emitted %s, which BENCHMARK.json does not declare", rep.Workload, n)
			} else if m.Unit == "" || m.Unit != unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", rep.Workload, n, m.Unit, unit)
			}
		}
		for n := range want {
			if _, ok := rep.Result.Metrics[n]; !ok {
				t.Errorf("%s: BENCHMARK.json declares %s, which was not emitted", rep.Workload, n)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, d := range file.EndToEnd {
		e2e[d.Name] = d.Unit
	}
	for _, d := range file.PerLayer {
		layers[d.Name] = d.Unit
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(file.Workloads), len(workloads))
	}
	e := env{seed: 1, scale: 0.02, dir: t.TempDir(), root: root, procs: 2}
	for _, wd := range file.Workloads {
		w, ok := workloadByName(wd.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json declares workload %s, which the harness does not have", wd.Name)
		}
		rep, err := measure(w, e, 0, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		check(rep, e2e)
	}
	out := t.TempDir()
	rep, err := measureTraced(workloads[0], e, 0, out)
	if err != nil {
		t.Fatal(err)
	}
	check(rep, layers)
	if fi, err := os.Stat(filepath.Join(out, "trace.json")); err != nil || fi.Size() == 0 {
		t.Errorf("traced pass wrote no trace.json: %v", err)
	}
}
