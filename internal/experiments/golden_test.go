package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"highradix/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ with freshly generated tables")

// golden compares a generated table against its recorded rendering.
// The experiment generators are deterministic at every worker count
// (see TestParallelSweepDeterminism), so these files pin the numeric
// output of the whole simulation stack — any change to routing,
// arbitration, RNG streams or statistics shows up as a diff here, and
// intentional changes are recorded with -update. It returns the table
// it generated.
func golden(t *testing.T, name string, gen Generator, s Scale) *stats.Table {
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
		return tab
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
	return tab
}

// TestGolden pins every registered experiment at Quick scale, so a new
// Registry entry is goldened by construction (its first run fails on
// the missing file until -update records it). radixscale is the golden
// that reaches the radix-256 hot paths (multi-word tree arbitration,
// the flat crosspoint banks, the credit rings) and fig_alloc the one
// that reaches the iSLIP matcher and the shared-pool admission rule.
// Quick's 256-node networks run on one engine; fig19_sharded regenerates
// fig19 through the epoch runner at 2 and at 4 workers against the same
// file — the golden-level statement of the shard package's equivalence
// claim.
//
// The claims step evaluates every entry of Claims on the Quick tables
// the registry cases generated, simulating nothing more, and fails on
// any verdict its entry does not expect, in either direction. It runs
// under -update too, so a change that moves a golden across a claim
// must flip that claim's FailsAt in the same diff.
func TestGolden(t *testing.T) {
	tables := map[string]*stats.Table{}
	for _, e := range Registry {
		t.Run(e.Name, func(t *testing.T) { tables[e.Name] = golden(t, e.Name, e.Gen, Quick) })
	}
	t.Run("claims", func(t *testing.T) {
		vs := Evaluate(Claims, tables, false)
		if len(vs) < len(Claims) {
			t.Logf("%d of %d claims evaluated: the others' figures did not run", len(vs), len(Claims))
		}
		var bad []string
		for _, v := range vs {
			if !v.Expected {
				bad = append(bad, v.ID)
			}
		}
		if len(bad) > 0 {
			t.Errorf("verdicts the claims table does not expect: %s\n%s", strings.Join(bad, ", "), VerdictTable(vs))
		}
	})
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
// with every run forced to dense per-cycle stepping, every registered
// figure must reproduce the golden its fast-forwarding run recorded, so
// each router organization, traffic pattern and the network driver are
// held to their per-cycle selves.
func TestGoldenDense(t *testing.T) {
	if *update {
		t.Skip("the goldens are written by TestGolden; this test only cross-checks dense stepping")
	}
	s := Quick
	s.dense = true
	for _, e := range Registry {
		t.Run(e.Name, func(t *testing.T) { golden(t, e.Name, e.Gen, s) })
	}
}
