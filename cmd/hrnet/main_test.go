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

// A -loads list that does not parse is a usage error, found before
// anything is printed.
func TestBadLoadsIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-radix", "4", "-digits", "2", "-loads", "0.2,,0.3"}, &stdout, &stderr)
	if code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2, nothing on stdout, the error on stderr",
			code, stdout.String(), stderr.String())
	}
}
