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

// A -load or -loads entry that does not parse, or that no terminal can
// offer (negative, not a number, more than one packet per cycle), is a
// usage error, found before anything is printed.
func TestBadLoadsIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-loads", "0.2,,0.3"},
		{"-load", "-0.1"},
		{"-loads", "0.1,-0.2"},
		{"-load", "8"},
		{"-load", "NaN"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-radix", "4", "-digits", "2"}, args...), &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, nothing on stdout, the error on stderr",
				args, code, stdout.String(), stderr.String())
		}
	}
}
