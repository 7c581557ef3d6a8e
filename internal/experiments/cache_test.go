package experiments

import (
	"bytes"
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

// TestTableFigureCache: the figure-level cache serves whole tables.
// fig2 is analytic (no simulation), so this exercises only the
// caching, not the pool.
func TestTableFigureCache(t *testing.T) {
	s := cacheScale(t)
	t1, hit1, err := Table("fig2", s)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first generation reported a cache hit")
	}
	t2, hit2, err := Table("fig2", s)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second generation missed the figure cache")
	}
	if t1.String() != t2.String() {
		t.Fatalf("cached table renders differently:\n%s\n---\n%s", t1.String(), t2.String())
	}
	b1, _, err := TableBytes("fig2", s)
	if err != nil {
		t.Fatal(err)
	}
	b2, hit, err := TableBytes("fig2", s)
	if err != nil || !hit {
		t.Fatalf("TableBytes rerun: hit=%v err=%v", hit, err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("TableBytes not byte-stable across cache hits")
	}
	if _, _, err := Table("no-such-experiment", s); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// TestFigureKeySensitivity: distinct experiments, seeds and scales
// address distinct figures.
func TestFigureKeySensitivity(t *testing.T) {
	s := cacheScale(t)
	base := FigureKey("fig9", s)
	if k := FigureKey("fig19", s); k == base {
		t.Fatal("different experiments share a figure key")
	}
	reseeded := s
	reseeded.Seed = 2
	if k := FigureKey("fig9", reseeded); k == base {
		t.Fatal("different seeds share a figure key")
	}
	changed := s
	changed.Loads = []float64{0.2, 0.5, 0.95}
	if k := FigureKey("fig9", changed); k == base {
		t.Fatal("different load lists share a figure key")
	}
	// Knobs proven byte-identical must NOT swing the key.
	same := s
	same.Workers = 8
	same.NetWorkers = 4
	same.dense = true
	same.Cache = nil
	if k := FigureKey("fig9", same); k != base {
		t.Fatal("wall-clock-only knobs changed the figure key")
	}
}
