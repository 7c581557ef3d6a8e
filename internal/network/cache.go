package network

import "highradix/internal/cache"

// CacheKey returns the content address of this run's Result
// (cache.KeyOf over the defaulted options), or ok=false when the run
// cannot be cached: a hooked run (the hooks observe every injection and
// delivery; serving from the cache would skip them), a topology or
// pattern declared outside this package or internal/traffic, or one the
// engine rejects. The topology is resolved first, so Net: cfg and
// Topo: NewClos(cfg) share a key. NoFastForward is tagged out of the key
// for the same reason as in testbench, and the sharded runner's worker
// count never reaches it: shard equivalence is byte-exact at every count.
func (o Options) CacheKey() (key cache.Key, ok bool) {
	o = o.WithDefaults()
	topo, err := o.Topology()
	if err != nil {
		return "", false
	}
	o.Net, o.Topo = Config{}, topo
	return cache.KeyOf(o)
}

// EncodeResult renders a Result as its stored bytes (cache.Encode).
func EncodeResult(r Result) []byte { return cache.Encode(r) }
