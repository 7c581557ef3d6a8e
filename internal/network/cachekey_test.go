package network

import (
	"highradix/internal/flit"
	"testing"

	"highradix/internal/cache"
	"highradix/internal/traffic"
)

func TestNetEncodeResultRoundTrip(t *testing.T) {
	r := Result{
		Load: 0.5, AvgLatency: 95.125, P99: 301, Throughput: 0.497,
		Packets: 99999, Saturated: true, Cycles: 5400, AvgHops: 4.75,
		DrainUsed: 132,
	}
	var got Result
	if err := cache.Decode(EncodeResult(r), &got); err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("roundtrip changed the result:\n%+v\n%+v", got, r)
	}
	if err := cache.Decode(nil, &got); err == nil {
		t.Fatal("nil payload decoded without error")
	}
}

func TestNetCacheKeySensitivity(t *testing.T) {
	base := Options{Net: Config{Radix: 4, Digits: 2}, Load: 0.5, Seed: 1}
	baseKey, ok := base.CacheKey()
	if !ok {
		t.Fatal("base options uncacheable")
	}
	// Defaulting invariance: the defaulted spelling shares the key.
	spelled := base
	spelled.Net = spelled.Net.WithDefaults()
	spelled.PktLen = 1
	spelled.WarmupCycles = 2000
	spelled.MeasureCycles = 4000
	spelled.DrainCycles = 4 * (2000 + 4000)
	if spelled.SatLatency == 0 {
		spelled.SatLatency = base.WithDefaults().SatLatency
	}
	if k, ok := spelled.CacheKey(); !ok || k != baseKey {
		t.Fatalf("defaulted spelling keys differently: %v ok=%v", k, ok)
	}
	distinct := map[string]func(*Options){
		"load":     func(o *Options) { o.Load = 0.6 },
		"seed":     func(o *Options) { o.Seed = 2 },
		"pktlen":   func(o *Options) { o.PktLen = 3 },
		"topology": func(o *Options) { o.Net.Digits = 3 },
		"pattern":  func(o *Options) { o.Pattern = traffic.NewDiagonal(16) },
	}
	for name, mutate := range distinct {
		o := base
		mutate(&o)
		if k, ok := o.CacheKey(); !ok || k == baseKey {
			t.Errorf("%s: key unchanged or uncacheable (ok=%v)", name, ok)
		}
	}
	// Fast-forward twins share the entry.
	ff := base
	ff.NoFastForward = true
	if k, ok := ff.CacheKey(); !ok || k != baseKey {
		t.Errorf("NoFastForward changed the key")
	}
}

// TestTopologyCanonicalDistinct pins that the three families and their
// parameter variations key distinctly as the topology of a run.
func TestTopologyCanonicalDistinct(t *testing.T) {
	mk := func(fn func() (Topology, error)) Topology {
		topo, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	topos := []Topology{
		mk(func() (Topology, error) { return NewClos(Config{Radix: 4, Digits: 2}) }),
		mk(func() (Topology, error) { return NewClos(Config{Radix: 4, Digits: 3}) }),
		mk(func() (Topology, error) { return NewTorus(TorusConfig{X: 16, Y: 1}) }),
		mk(func() (Topology, error) { return NewTorus(TorusConfig{X: 8, Y: 1}) }),
		mk(func() (Topology, error) { return NewTorus(TorusConfig{X: 4, Y: 4}) }),
		mk(func() (Topology, error) { return NewTorus(TorusConfig{X: 2, Y: 8}) }),
	}
	seen := map[cache.Key]bool{}
	for _, topo := range topos {
		k, ok := Options{Topo: topo, Load: 0.5}.CacheKey()
		if !ok {
			t.Fatalf("%s/%d: uncacheable", topo.Name(), topo.Routers())
		}
		if seen[k] {
			t.Errorf("duplicate topology key: %s/%d", topo.Name(), topo.Routers())
		}
		seen[k] = true
	}
}

type nopHooks struct{}

func (nopHooks) Injected(int64, *flit.Flit)  {}
func (nopHooks) Delivered(int64, *flit.Flit) {}
func (nopHooks) EndCycle(int64, int) error   { return nil }
func (nopHooks) Final(int64) error           { return nil }

func TestNetCacheKeyUncacheable(t *testing.T) {
	o := Options{Net: Config{Radix: 4, Digits: 2}, Load: 0.5, Seed: 1}
	o.Hooks = nopHooks{}
	if k, ok := o.CacheKey(); ok {
		t.Fatalf("hooked run keyed as cacheable (%v)", k)
	}
}
