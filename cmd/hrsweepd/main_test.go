package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"highradix/internal/cache"
	"highradix/internal/experiments"
	"highradix/internal/serve"
)

// drainFigure is the cold figure both drain tests request: at
// drainScale it simulates long enough (tens of ms) to be cancelled
// mid-computation.
const drainFigure = "fig9"

// drainScale is a small scale over a fresh store.
func drainScale(t *testing.T) experiments.Scale {
	t.Helper()
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return experiments.Scale{
		Warmup: 200, Measure: 800, Loads: []float64{0.3, 0.6, 0.9}, Seed: 1, Workers: 1, Cache: st,
	}
}

// reply is one client response.
type reply struct {
	code int
	body string
	err  error
}

// startServe runs serveUntil on a loopback listener and returns its base
// URL, the cancel that starts the drain, and serveUntil's result.
func startServe(t *testing.T, srv *serve.Server) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() { done <- serveUntil(ctx, ln, srv, time.Minute, log.Default()) }()
	return "http://" + ln.Addr().String(), cancel, done
}

// fetch issues one GET on its own goroutine.
func fetch(url string) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			out <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		out <- reply{resp.StatusCode, string(b), err}
	}()
	return out
}

// checkStored runs the figure again over the drained store and requires
// it to compute nothing: the figure and every point it needs were
// stored before serveUntil returned. It returns the figure's text.
func checkStored(t *testing.T, scale experiments.Scale) string {
	t.Helper()
	before := scale.Cache.Counters().Computes
	tbl, hit, err := experiments.Table(drainFigure, scale)
	if err != nil {
		t.Fatal(err)
	}
	if after := scale.Cache.Counters().Computes; !hit || after != before {
		t.Fatalf("%s after the drain: hit=%t, store computes %d -> %d; want a hit and no computes", drainFigure, hit, before, after)
	}
	return tbl.String()
}

// TestDrainAnswersOpenRequest cancels the service while a cold figure
// computes: the open request still gets the complete figure, and
// serveUntil returns nil.
func TestDrainAnswersOpenRequest(t *testing.T) {
	scale := drainScale(t)
	srv := serve.New(serve.Config{Scale: scale, MaxInflight: 2, Timeout: time.Minute})
	base, cancel, done := startServe(t, srv)
	got := fetch(base + "/figures/" + drainFigure)
	var r reply
	for waiting := true; waiting; {
		select {
		case r = <-got:
			t.Fatalf("the figure was answered (code %d, err %v) before a computation was seen in flight", r.code, r.err)
		default:
		}
		if waiting = srv.Metrics().Inflight == 0; waiting {
			time.Sleep(100 * time.Microsecond)
		}
	}
	cancel()
	r = <-got
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("open request across the drain: code %d, err %v", r.code, r.err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	if want := checkStored(t, scale); r.body != want {
		t.Fatalf("drained response is not the complete figure:\n%s\nwant:\n%s", r.body, want)
	}
}

// TestDrainStoresAbandoned gives a client a 504 while its cold figure
// keeps computing, then cancels the service: serveUntil returns only
// after the abandoned computation has landed in the store.
func TestDrainStoresAbandoned(t *testing.T) {
	scale := drainScale(t)
	srv := serve.New(serve.Config{Scale: scale, MaxInflight: 2, Timeout: 5 * time.Millisecond})
	base, cancel, done := startServe(t, srv)
	r := <-fetch(base + "/figures/" + drainFigure)
	if r.err != nil || r.code != http.StatusGatewayTimeout {
		t.Fatalf("cold figure past its budget: code %d, err %v; want 504", r.code, r.err)
	}
	if srv.Metrics().Inflight == 0 {
		t.Fatal("the abandoned computation had already finished at the 504; nothing left to drain")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	if n := srv.Metrics().Inflight; n != 0 {
		t.Fatalf("serveUntil returned with %d computations in flight", n)
	}
	checkStored(t, scale)
}

// TestRunRejectsBadFlags: a flag no service can run with exits 2 naming
// the flag, before the store is opened (its directory is never made) or
// a port bound, and prints nothing to stdout. A run that got past the
// checks would serve until killed, so run is given 10 s to return.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-quick"}, "-cache"},
		{[]string{"-j", "-1"}, "-j"},
		{[]string{"-maxinflight", "0"}, "-maxinflight"},
		{[]string{"-maxinflight", "-5"}, "-maxinflight"},
		{[]string{"-j", "-1", "-maxinflight", "-5"}, "-j"},
		{[]string{"-timeout", "0s"}, "-timeout"},
		{[]string{"-timeout", "-1m"}, "-timeout"},
		{[]string{"-nope"}, "-nope"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			store := filepath.Join(t.TempDir(), "store")
			args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
			if tc.flag != "-cache" {
				args = append(args, "-cache", store)
			}
			var stdout, stderr bytes.Buffer
			code := make(chan int, 1)
			go func() { code <- run(args, &stdout, &stderr) }()
			select {
			case c := <-code:
				if c != 2 {
					t.Errorf("exit %d, want 2; stderr: %s", c, stderr.String())
				}
			case <-time.After(10 * time.Second):
				t.Fatal("run did not return: it is serving")
			}
			if !strings.Contains(stderr.String(), tc.flag) {
				t.Errorf("stderr does not name %s: %q", tc.flag, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout: %q, want nothing", stdout.String())
			}
			if _, err := os.Stat(store); !os.IsNotExist(err) {
				t.Errorf("the store was opened (stat: %v)", err)
			}
		})
	}
}
