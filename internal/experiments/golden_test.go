package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"highradix/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ with freshly generated tables")

// golden compares a generated table against its recorded rendering.
// The experiment generators are deterministic at every worker count
// (see TestParallelSweepDeterminism), so these files pin the numeric
// output of the whole simulation stack — any change to routing,
// arbitration, RNG streams or statistics shows up as a diff here, and
// intentional changes are recorded with -update.
func golden(t *testing.T, name string, gen Generator, s Scale) {
	t.Helper()
	tab, err := gen(s)
	if err != nil {
		t.Fatal(err)
	}
	got := tab.String()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with: go test ./internal/experiments -run TestGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output diverged from its golden file.\nIf the change is intentional, regenerate with:\n"+
			"  go test ./internal/experiments -run TestGolden -update\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// gapScale is Quick with gap-sampled injection. Gap mode is
// distribution-equivalent but not draw-identical to per-cycle
// injection, so it pins its own goldens; divergence between a gap
// golden and its per-cycle counterpart beyond statistical noise would
// indicate a sampler bug (the chi-square tests in internal/traffic
// bound the samplers themselves).
func gapScale() Scale {
	s := Quick
	s.Injection = traffic.InjGap
	return s
}

// TestGolden pins every registered experiment at Quick scale, so a new
// Registry entry is goldened by construction (its first run fails on
// the missing file until -update records it). radixscale is the golden
// that reaches the radix-256 hot paths (multi-word tree arbitration,
// the flat crosspoint banks, the credit rings) and fig_alloc the one
// that reaches the iSLIP matcher and the shared-pool admission rule.
// The three figures with a <name>_gap file are pinned under gap
// injection as well. Quick's 256-node networks run on one engine;
// fig19_sharded regenerates fig19 through the epoch runner at 2 and at 4
// workers against the same file — the golden-level statement of the
// shard package's equivalence claim.
func TestGolden(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.Name, func(t *testing.T) { golden(t, e.Name, e.Gen, Quick) })
	}
	for _, name := range []string{"fig9", "fig19", "topo"} {
		gen, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name+"_gap", func(t *testing.T) { golden(t, name+"_gap", gen, gapScale()) })
	}
	t.Run("fig19_sharded", func(t *testing.T) {
		if *update {
			t.Skip("fig19.golden is written by the fig19 case (serial); this case only cross-checks the sharded driver")
		}
		for _, w := range []int{2, 4} {
			t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
				s := Quick
				s.shards = w
				golden(t, "fig19", Fig19, s)
			})
		}
	})
}

// TestGoldenDense is the figure-level fast-forward twin: regenerated
// with every run forced to dense per-cycle stepping, a figure must
// reproduce the golden its fast-forwarding run recorded. fig9 covers the
// single-router driver, fig19 the network driver, fig_alloc the VOQ and
// dynamic-VC routers; under gap injection the dense twin also walks
// every cycle between two injections.
func TestGoldenDense(t *testing.T) {
	if *update {
		t.Skip("the goldens are written by TestGolden; this test only cross-checks dense stepping")
	}
	for _, c := range []struct {
		exp, file string
		scale     Scale
	}{
		{"fig9", "fig9", Quick},
		{"fig19", "fig19", Quick},
		{"fig_alloc", "fig_alloc", Quick},
		{"fig9", "fig9_gap", gapScale()},
		{"fig19", "fig19_gap", gapScale()},
	} {
		gen, err := ByName(c.exp)
		if err != nil {
			t.Fatal(err)
		}
		c.scale.dense = true
		t.Run(c.file, func(t *testing.T) { golden(t, c.file, gen, c.scale) })
	}
}
