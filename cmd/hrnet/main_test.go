package main

import (
	"bytes"
	"testing"
)

// An audited run's whole stdout. Apart from the header, which names the
// per-hop cost a flit is charged (pipeline delay plus the link cycle),
// it is what hrnet printed before the header changed.
func TestRunOutputPinned(t *testing.T) {
	want := "clos: routers=12 terminals=16 vcs=4 per-hop=8 ser=1\n" +
		"  load             0.300 of capacity\n" +
		"  avg latency      25.52 cycles (p99 28.0)\n" +
		"  avg router hops  3.00\n" +
		"  throughput       0.2952 of capacity\n" +
		"  labeled packets  1906 over 627 cycles\n" +
		"  invariants       ok (conservation, in-order delivery, VC ownership, serializer spacing, progress)\n"
	var stdout, stderr bytes.Buffer
	code := run([]string{"-radix", "4", "-digits", "2", "-warmup", "200", "-measure", "400",
		"-load", "0.3", "-check"}, &stdout, &stderr)
	if code != 0 || stdout.String() != want || stderr.Len() != 0 {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr.String(), stdout.String(), want)
	}
}

// An audited sweep's whole stdout: the table, then the line saying
// every point it ran passed the checker.
func TestSweepOutputPinned(t *testing.T) {
	want := "clos: routers=12 terminals=16 vcs=4 per-hop=8 ser=1\n" +
		"  load          latency   throughput       hops\n" +
		"  0.200           25.29       0.2018       3.00\n" +
		"  0.500           26.31       0.4903       3.00\n" +
		"  invariants       ok (conservation, in-order delivery, VC ownership, serializer spacing, progress)\n"
	var stdout, stderr bytes.Buffer
	code := run([]string{"-radix", "4", "-digits", "2", "-loads", "0.2,0.5", "-warmup", "300", "-measure", "600",
		"-check"}, &stdout, &stderr)
	if code != 0 || stdout.String() != want || stderr.Len() != 0 {
		t.Errorf("exit %d, stderr %q, stdout:\n%s\nwant:\n%s", code, stderr.String(), stdout.String(), want)
	}
}

// A -load or -loads entry that does not parse, that no terminal can
// offer (negative, not a number, more than one packet per cycle) or that
// offers nothing (zero) is a usage error, found before anything is
// printed.
func TestBadLoadsIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-loads", "0.2,,0.3"},
		{"-load", "-0.1"},
		{"-loads", "0.1,-0.2"},
		{"-load", "8"},
		{"-load", "NaN"},
		// Or that offers nothing to measure.
		{"-load", "0"},
		{"-loads", "0,0.3"},
		{"-loads", "0.3,0"},
		// So is a phase no run can have, caught before the header prints.
		{"-warmup", "-100"},
		{"-measure", "-50", "-loads", "0.1,0.2"},
		// Or a zero one, which the library would read as its default.
		{"-warmup", "0"},
		{"-measure", "0", "-loads", "0.1,0.2"},
		// And a negative worker count.
		{"-j", "-3", "-loads", "0.1,0.2"},
		{"-j", "-1"},
		// And a topology beyond the engine's limits (25,000,000 terminals).
		{"-radix", "5000", "-digits", "2"},
		{"-topo", "torus", "-dimx", "5000", "-dimy", "5000"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-radix", "4", "-digits", "2"}, args...), &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, nothing on stdout, the error on stderr",
				args, code, stdout.String(), stderr.String())
		}
	}
}
