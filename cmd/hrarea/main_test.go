package main

import (
	"bytes"
	"strings"
	"testing"
)

// An area query for a router that cannot be built is a usage error that
// names the flag at fault, not a panic or a figure.
func TestAreaRejectsUnbuildableRouter(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-subsize", "0"}, "-subsize"}, // divides by zero
		{[]string{"-subsize", "7"}, "-subsize"}, // 7 does not divide 64
		{[]string{"-radix", "0"}, "-radix"},     // NaN mm^2
		{[]string{"-radix", "1", "-subsize", "1"}, "-radix"},
		{[]string{"-radix", "16", "-subsize", "32"}, "-subsize"},
		{[]string{"-radix", "2048"}, "-radix"}, // above router.MaxRadix
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-mode", "area"}, tc.args...), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.flag) || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2 naming %s and no figures",
				tc.args, code, stderr.String(), stdout.String(), tc.flag)
		}
	}
}

// The analytic modes refuse inputs outside their models' domain, which
// used to print -Inf, NaN or negative latencies and exit 0.
func TestModelsRejectOutOfDomainInputs(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-mode", "optimal", "-nodes", "0"}, "-nodes"}, // A = -Inf, cost NaN
		{[]string{"-mode", "optimal", "-nodes", "1"}, "-nodes"},
		{[]string{"-mode", "optimal", "-nodes", "Inf"}, "-nodes"},
		{[]string{"-mode", "optimal", "-bandwidth", "-1"}, "-bandwidth"}, // latency -1.0e12 ns
		{[]string{"-mode", "optimal", "-tr", "0"}, "-tr"},
		{[]string{"-mode", "optimal", "-tr", "NaN"}, "-tr"},
		{[]string{"-mode", "optimal", "-packet", "0"}, "-packet"}, // A = +Inf
		{[]string{"-mode", "power", "-nodes", "0"}, "-nodes"},     // NaN routers and watts
		{[]string{"-mode", "power", "-bandwidth", "0"}, "-bandwidth"},
		{[]string{"-mode", "power", "-bandwidth", "+Inf"}, "-bandwidth"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.flag) || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2 naming %s and no figures",
				tc.args, code, stderr.String(), stdout.String(), tc.flag)
		}
	}
	for _, args := range [][]string{
		{"-mode", "optimal", "-nodes", "2"},
		{"-mode", "power", "-nodes", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 || strings.Contains(stdout.String(), "NaN") {
			t.Errorf("%v: exit %d, stderr %q, stdout %q", args, code, stderr.String(), stdout.String())
		}
	}
}

func TestAreaBuildableRouter(t *testing.T) {
	for _, args := range [][]string{
		{"-radix", "64", "-subsize", "8"},
		{"-radix", "64", "-subsize", "64"},
		{"-radix", "2", "-subsize", "1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-mode", "area"}, args...), &stdout, &stderr)
		if code != 0 || stderr.Len() != 0 || !strings.Contains(stdout.String(), "hierarchical p=") || strings.Contains(stdout.String(), "NaN") {
			t.Errorf("%v: exit %d, stderr %q, stdout %q", args, code, stderr.String(), stdout.String())
		}
	}
}

// The area report's every number, as first recorded when it priced hand
// formulas; pricing the built routers must reproduce it byte for byte.
func TestAreaReportPinned(t *testing.T) {
	const want = `radix 64, v=4, 4-flit buffers, 64-bit flits
  fully buffered storage: 4.46e+06 bits (6.7 mm^2)
  hierarchical p=8:      1.31e+06 bits (2.0 mm^2), 71% saving
  baseline (inputs only): 2.62e+05 bits
  wire area:              5.3 mm^2 (storage 6.7 mm^2; crossover radix 51)
`
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "area", "-radix", "64", "-subsize", "8"}, &stdout, &stderr); code != 0 || stdout.String() != want {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr.String(), stdout.String(), want)
	}
}
