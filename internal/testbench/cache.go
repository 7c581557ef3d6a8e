package testbench

import "highradix/internal/cache"

// CacheKey returns the content address of this run's Result
// (cache.KeyOf over the defaulted options, router included), or ok=false
// when the run cannot be cached: a trace replay, an Observer or
// OnMeasureStart hook (callbacks fire during simulation; serving from
// the cache would silently skip them), or a pattern declared outside
// internal/traffic. NoFastForward is tagged out of the key: fast-forward
// is byte-identical by contract (the twin and fuzz equivalence suites),
// so both stepping modes share one entry.
func (o Options) CacheKey() (key cache.Key, ok bool) {
	o = o.WithDefaults()
	o.Router = o.Router.WithDefaults()
	return cache.KeyOf(o)
}

// EncodeResult renders a Result as its stored bytes (cache.Encode).
func EncodeResult(r Result) []byte { return cache.Encode(r) }
