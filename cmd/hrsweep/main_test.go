package main

import (
	"bytes"
	"strings"
	"testing"

	"highradix/internal/experiments"
)

// -list prints every registry experiment, one line each, and exits 0;
// with neither -list nor -exp the same list is a usage error.
func TestList(t *testing.T) {
	want := "experiments:\n"
	for _, e := range experiments.Registry {
		want += "  " + e.Name + strings.Repeat(" ", max(1, 11-len(e.Name))) + e.Desc + "\n"
	}
	want += "  all        run everything\n"
	if !strings.Contains(want, "  fig9       latency vs offered load") || !strings.Contains(want, "  fig_alloc  extension") {
		t.Fatalf("list layout changed:\n%s", want)
	}
	for _, tc := range []struct {
		args []string
		code int
	}{{[]string{"-list"}, 0}, {nil, 2}} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || stdout.String() != want || stderr.Len() != 0 {
			t.Errorf("%v: exit %d (want %d), stderr %q, stdout:\n%s\nwant:\n%s",
				tc.args, code, tc.code, stderr.String(), stdout.String(), want)
		}
	}
}

// A name that is not an experiment, an unknown flag (-inj among them:
// no command has an injection switch) and a negative worker count are
// usage errors, reported before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "nope"},
		{"-exp", "fig2", "-inj", "gap"},
		{"-exp", "fig2", "-nosuchflag"},
		{"-exp", "fig2", "-j", "-1"},
		{"-list", "-j", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2, a message and nothing on stdout", args, code, stdout.String(), stderr.String())
		}
	}
}

// One experiment prints its table and a blank line on stdout and its
// timing on stderr.
func TestOneExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	tab, err := experiments.Fig2(experiments.Full)
	if err != nil {
		t.Fatal(err)
	}
	if want := tab.String() + "\n"; stdout.String() != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), want)
	}
	if !strings.HasPrefix(stderr.String(), "[fig2 completed in ") {
		t.Errorf("stderr %q, want the timing line", stderr.String())
	}
}
