package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"highradix/internal/sim"
	"highradix/internal/traffic"
)

// A zero flag takes the router's default, and the run, its traffic
// pattern and its header all use the router that was built.
func TestRunUsesDefaultedConfig(t *testing.T) {
	short := []string{"-load", "0.1", "-warmup", "100", "-measure", "200"}
	trace := filepath.Join(t.TempDir(), "light.trace")
	tr := traffic.GenerateTrace(sim.NewRNG(9), 16, 400, 0.05, 1, traffic.NewUniform(16))
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-radix", "0"}, 0, "radix=64"},
		{[]string{"-vcs", "0"}, 0, "vcs=4"},
		{[]string{"-subsize", "0", "-pattern", "worstcase"}, 0, "pattern=worstcase"},
		{[]string{"-pkt", "0"}, 0, "pkt=1\n"},
		// A replay's header names its trace, not the pattern, load and
		// packet length it never used.
		{[]string{"-arch", "hierarchical", "-radix", "16", "-subsize", "4", "-trace", trace}, 0,
			fmt.Sprintf("vcs=4 trace=%s packets=%d\n", trace, tr.Len())},
		// A load the defaulted router cannot be offered is a usage error,
		// reported before anything prints.
		{[]string{"-load", "-1"}, 2, ""},
		{[]string{"-load", "5"}, 2, ""}, // 4 cycles a flit: at most a load of 4
		{[]string{"-pkt", "-2"}, 2, ""},
		// So is a phase no run can have.
		{[]string{"-warmup", "-100"}, 2, ""},
		{[]string{"-measure", "-50"}, 2, ""},
		// Or a zero one, which the library would read as its default.
		{[]string{"-warmup", "0"}, 2, ""},
		{[]string{"-measure", "0"}, 2, ""},
		// And a negative count of events or packets to print.
		{[]string{"-events", "-1"}, 2, ""},
		{[]string{"-events", "1", "-packets", "-1"}, 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append(slices.Clone(short), tc.args...), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.want) || tc.want == "" && (stdout.Len() != 0 || stderr.Len() == 0) {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit %d and %q",
				tc.args, code, stderr.String(), stdout.String(), tc.code, tc.want)
		}
	}
}

// An ordinary run's whole stdout, events and timeline included, as
// recorded before the flags were read through the defaulted config.
func TestRunOutputPinned(t *testing.T) {
	want := "cycle      1  accept pkt=1      in=6   out=2   vc=0 \n" +
		"cycle      4  grant  pkt=0      in=6   out=2   vc=0 switch\n" +
		"arch=baseline radix=16 vcs=4 pattern=uniform load=0.400 pkt=1\n" +
		"  avg latency      79.20 cycles (p50 60.5, p99 238.7)\n" +
		"  throughput       0.3513 of capacity\n" +
		"  labeled packets  334 (99% CI half-width 11.25% of mean)\n" +
		"  simulated cycles 488\n" +
		"  invariants       ok (conservation, credits, ordering, VC ownership, progress)\n" +
		"\n" +
		"packet 123: 7 -> 0, 1 flits\n" +
		"  +   0  accept flit 1/1  in=7 out=0 vc=1\n" +
		"  +   8  eject  flit 1/1  in=7 out=0 vc=1\n" +
		"\n"
	var stdout, stderr bytes.Buffer
	code := run([]string{"-arch", "baseline", "-bursty", "-radix", "16", "-load", "0.4",
		"-warmup", "100", "-measure", "200", "-check", "-packets", "1", "-events", "2"}, &stdout, &stderr)
	if code != 0 || stdout.String() != want {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr.String(), stdout.String(), want)
	}
}

// A replay draws no destinations, so -pattern neither refuses it (a
// hotspot needs more terminals than radix 4 has) nor changes a byte of
// its output.
func TestTraceIgnoresPattern(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "radix4.trace")
	tr := traffic.GenerateTrace(sim.NewRNG(3), 4, 300, 0.2, 1, traffic.NewUniform(4))
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	base := []string{"-arch", "lowradix", "-radix", "4", "-warmup", "50", "-measure", "200", "-trace", trace}
	var want, stderr bytes.Buffer
	if code := run(base, &want, &stderr); code != 0 {
		t.Fatalf("without -pattern: exit %d, stderr %q", code, stderr.String())
	}
	for _, pattern := range []string{"hotspot", "worstcase", "nope"} {
		var stdout bytes.Buffer
		stderr.Reset()
		code := run(append(slices.Clone(base), "-pattern", pattern), &stdout, &stderr)
		if code != 0 || stdout.String() != want.String() {
			t.Errorf("-pattern %s: exit %d, stderr %q, stdout:\n%s\nwant the run without -pattern:\n%s",
				pattern, code, stderr.String(), stdout.String(), want.String())
		}
	}
}
