package experiments

import (
	"runtime"
	"testing"

	"highradix/internal/cache"
	"highradix/internal/router"
	"highradix/internal/stats"
)

// cacheScale is a deliberately tiny scale for cache-behavior tests:
// Workers 1 makes the number of computed points exact (no lookahead
// overshoot past saturation).
func cacheScale(t *testing.T) Scale {
	t.Helper()
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return Scale{
		Warmup:  100,
		Measure: 200,
		Loads:   []float64{0.2, 0.5, 0.9},
		Seed:    1,
		Workers: 1,
		Cache:   st,
	}
}

func genLatency(t *testing.T, s Scale) string {
	t.Helper()
	out := &stats.Table{Title: "cache test", XLabel: "load", YLabel: "latency"}
	if err := s.latencyFigure(out, []latencyCase{
		{name: "baseline", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA}},
	}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestWarmRerunByteIdentical is the tentpole guarantee at the
// experiments layer: a second run of the same figure against a warm
// store produces byte-identical output while running zero simulations,
// and both match the cache-disabled output exactly.
func TestWarmRerunByteIdentical(t *testing.T) {
	s := cacheScale(t)
	cold := genLatency(t, s)
	afterCold := s.Cache.Counters()
	if afterCold.Computes == 0 {
		t.Fatal("cold run computed nothing")
	}
	warm := genLatency(t, s)
	afterWarm := s.Cache.Counters()
	if warm != cold {
		t.Fatalf("warm rerun differs from cold run:\n%s\n---\n%s", warm, cold)
	}
	if afterWarm.Computes != afterCold.Computes {
		t.Fatalf("warm rerun computed %d new points, want 0", afterWarm.Computes-afterCold.Computes)
	}
	uncached := s
	uncached.Cache = nil
	if plain := genLatency(t, uncached); plain != cold {
		t.Fatalf("cached output differs from uncached output:\n%s\n---\n%s", cold, plain)
	}
	// A line with loads past its knee, warmed serially, is read serially
	// at -j 8 too: the rerun's lookahead (eight points wide, given eight
	// processors) runs no point the cold run skipped.
	past := s
	past.Loads = []float64{0.2, 0.7, 0.8, 0.9, 0.95}
	cold = genLatency(t, past)
	before := s.Cache.Counters().Computes
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	past.Workers = 8
	if warm := genLatency(t, past); warm != cold {
		t.Fatalf("-j 8 warm rerun differs from the -j 1 cold run:\n%s\n---\n%s", warm, cold)
	}
	if got := s.Cache.Counters().Computes - before; got != 0 {
		t.Fatalf("-j 8 warm rerun computed %d points past the knee, want 0", got)
	}
}

// TestDirtyPointRecompute: editing one load in the sweep recomputes
// exactly that point — everything else is served from the store.
func TestDirtyPointRecompute(t *testing.T) {
	s := cacheScale(t)
	genLatency(t, s)
	before := s.Cache.Counters()
	dirty := s
	dirty.Loads = []float64{0.2, 0.55, 0.9}
	genLatency(t, dirty)
	after := s.Cache.Counters()
	if got := after.Computes - before.Computes; got != 1 {
		t.Fatalf("dirty sweep computed %d points, want exactly the 1 changed load", got)
	}
}

// TestTableFigureCache: a table is its generator run over the stored
// points, so a warm rerun of a simulated figure is a hit that computes
// nothing and renders the same bytes, which are the uncached bytes too.
func TestTableFigureCache(t *testing.T) {
	s := cacheScale(t)
	t1, hit1, err := Table("fig9", s)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first generation reported a cache hit")
	}
	before := s.Cache.Counters().Computes
	t2, hit2, err := Table("fig9", s)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second generation simulated a point")
	}
	if after := s.Cache.Counters().Computes; after != before {
		t.Fatalf("warm rerun computed %d points, want 0", after-before)
	}
	if t1.String() != t2.String() {
		t.Fatalf("warm table renders differently:\n%s\n---\n%s", t1.String(), t2.String())
	}
	uncached := s
	uncached.Cache = nil
	t3, hit3, err := Table("fig9", uncached)
	if err != nil || hit3 {
		t.Fatalf("uncached generation: hit=%v err=%v", hit3, err)
	}
	if t3.String() != t1.String() {
		t.Fatalf("cached table differs from uncached:\n%s\n---\n%s", t1.String(), t3.String())
	}
	if _, _, err := Table("no-such-experiment", s); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// servedTitle is the output of the experiment
// TestTableServesCurrentGenerator registers.
var servedTitle = "before"

// TestTableServesCurrentGenerator: the store never answers for a
// generator. An experiment whose table changes between two runs over one
// store renders its current output both times.
func TestTableServesCurrentGenerator(t *testing.T) {
	defer func(r []Entry) { Registry = r }(Registry)
	Registry = append(Registry[:len(Registry):len(Registry)], Entry{Name: "served", Gen: func(Scale) (*stats.Table, error) {
		return &stats.Table{Title: servedTitle}, nil
	}})
	defer func(v string) { servedTitle = v }(servedTitle)
	s := cacheScale(t)
	for _, want := range []string{"before", "after"} {
		servedTitle = want
		tbl, _, err := Table("served", s)
		if err != nil {
			t.Fatal(err)
		}
		if tbl.Title != want {
			t.Fatalf("Table served title %q, the generator now gives %q", tbl.Title, want)
		}
	}
}

// TestFigureKeySensitivity: the points fig9 stores are keyed by every
// option that determines them. Over a store fig9 warmed, a scale with
// another seed, load list or warmup simulates points afresh; one that
// differs only in the wall-clock knobs Workers, shards and dense
// simulates none.
func TestFigureKeySensitivity(t *testing.T) {
	s := cacheScale(t)
	if _, _, err := Table("fig9", s); err != nil {
		t.Fatal(err)
	}
	same := s
	same.Workers = 8
	same.shards = 4
	same.dense = true
	reseeded := s
	reseeded.Seed = 2
	loads := s
	loads.Loads = []float64{0.2, 0.5, 0.95}
	warmup := s
	warmup.Warmup = 150
	for _, c := range []struct {
		name  string
		scale Scale
		hit   bool
	}{
		{"wall-clock knobs", same, true},
		{"another seed", reseeded, false},
		{"another load list", loads, false},
		{"another warmup", warmup, false},
	} {
		before := s.Cache.Counters().Computes
		if _, hit, err := Table("fig9", c.scale); err != nil || hit != c.hit {
			t.Errorf("%s: hit=%v err=%v, want hit=%v", c.name, hit, err, c.hit)
		}
		if computed := s.Cache.Counters().Computes > before; computed == c.hit {
			t.Errorf("%s: computed points=%v, want %v", c.name, computed, !c.hit)
		}
	}
}
