package experiments

import (
	"strings"
	"testing"
)

// TestAnalyticExperiments runs the simulation-free generators and
// verifies their headline scalars against the paper.
func TestAnalyticExperiments(t *testing.T) {
	for _, name := range []string{"fig1", "fig2", "fig3", "fig15", "fig17d"} {
		gen, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := gen(Quick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Series) == 0 {
			t.Fatalf("%s produced no series", name)
		}
		out := tab.String()
		if !strings.Contains(out, "==") {
			t.Fatalf("%s rendering broken:\n%s", name, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every figure and table of the evaluation must be registered, each
	// under its own name: ByName returns the first match, so a second
	// entry of one name would never run.
	want := []string{"fig1", "fig2", "fig3", "fig9", "fig11", "fig13", "fig14",
		"fig15", "fig17a", "fig17b", "fig17c", "fig17d", "fig18", "fig19", "topo",
		"table1", "creditbus", "sharedxp", "localgroup", "specpolicy", "allociters",
		"radixsweep", "radixscale", "fig_alloc"}
	have := map[string]bool{}
	for _, e := range Registry {
		if have[e.Name] {
			t.Errorf("experiment %s registered twice", e.Name)
		}
		have[e.Name] = true
		if e.Desc == "" || e.Gen == nil {
			t.Errorf("experiment %s missing description or generator", e.Name)
		}
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %s not registered", w)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}
