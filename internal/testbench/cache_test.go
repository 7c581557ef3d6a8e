package testbench

import (
	"testing"

	"highradix/internal/cache"
	"highradix/internal/router"
	"highradix/internal/sim"
	"highradix/internal/traffic"
)

func TestEncodeResultRoundTrip(t *testing.T) {
	r := Result{
		Load: 0.65, AvgLatency: 37.25, P50: 31, P99: 122.5,
		Throughput: 0.6489, Packets: 12345, Saturated: true,
		RelErr99: 0.021, Cycles: 11800,
	}
	var got Result
	if err := cache.Decode(EncodeResult(r), &got); err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("roundtrip changed the result:\n%+v\n%+v", got, r)
	}
	if err := cache.Decode(EncodeResult(r)[:10], &got); err == nil {
		t.Fatal("truncated payload decoded without error")
	}
}

func TestCacheKeyDefaultingInvariance(t *testing.T) {
	sparse := Options{Router: router.Config{Arch: router.ArchBaseline}, Load: 0.5, Seed: 1}
	spelled := sparse
	spelled.Router = spelled.Router.WithDefaults()
	spelled.PktLen = 1
	spelled.WarmupCycles = 3000
	spelled.MeasureCycles = 8000
	spelled.DrainCycles = 4 * (3000 + 8000)
	spelled.SatLatency = 1000
	k1, ok1 := sparse.CacheKey()
	k2, ok2 := spelled.CacheKey()
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("sparse and defaulted options key differently: %v/%v %v/%v", k1, ok1, k2, ok2)
	}
}

// TestCacheKeySensitivity pins that every load-bearing option swings
// the key, and that the options proven byte-identical (fast-forward)
// share one.
func TestCacheKeySensitivity(t *testing.T) {
	base := Options{Router: router.Config{Arch: router.ArchBaseline}, Load: 0.5, Seed: 1}
	baseKey, ok := base.CacheKey()
	if !ok {
		t.Fatal("base options uncacheable")
	}
	distinct := map[string]func(*Options){
		"load":      func(o *Options) { o.Load = 0.6 },
		"seed":      func(o *Options) { o.Seed = 2 },
		"pktlen":    func(o *Options) { o.PktLen = 10 },
		"pattern":   func(o *Options) { o.Pattern = traffic.NewDiagonal(64) },
		"bursty":    func(o *Options) { o.Bursty = true },
		"check":     func(o *Options) { o.Check = true },
		"injection": func(o *Options) { o.Injection = traffic.InjGap },
		"warmup":    func(o *Options) { o.WarmupCycles = 100 },
		"router":    func(o *Options) { o.Router.VCs = 2 },
	}
	for name, mutate := range distinct {
		o := base
		mutate(&o)
		k, ok := o.CacheKey()
		if !ok {
			t.Errorf("%s: mutated options uncacheable", name)
			continue
		}
		if k == baseKey {
			t.Errorf("%s: semantically distinct options share a key", name)
		}
	}
	// NoFastForward runs are byte-identical by contract; they must
	// share the cache entry.
	ff := base
	ff.NoFastForward = true
	if k, ok := ff.CacheKey(); !ok || k != baseKey {
		t.Errorf("NoFastForward changed the key (%v, ok=%v); twin runs must share an entry", k, ok)
	}
}

func TestCacheKeyUncacheable(t *testing.T) {
	base := Options{Router: router.Config{Arch: router.ArchBaseline}, Load: 0.5, Seed: 1}
	cases := map[string]func(*Options){
		"trace":          func(o *Options) { o.Trace = traffic.NewTrace(nil) },
		"observer":       func(o *Options) { o.Router.Observer = router.ObserverFunc(func(router.Event) {}) },
		"onmeasurestart": func(o *Options) { o.OnMeasureStart = func() {} },
		"custom pattern": func(o *Options) { o.Pattern = customPattern{} },
	}
	for name, mutate := range cases {
		o := base
		mutate(&o)
		if k, ok := o.CacheKey(); ok {
			t.Errorf("%s: options keyed as cacheable (%v)", name, k)
		}
	}
}

type customPattern struct{}

func (customPattern) Dest(src int, rng *sim.RNG) int { return src }
func (customPattern) Name() string                   { return "custom" }
