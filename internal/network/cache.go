package network

import (
	"encoding/binary"
	"fmt"
	"math"

	"highradix/internal/cache"
)

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

// encodedResultLen is the fixed EncodeResult payload size: a version
// byte plus nine 8-byte fields.
const encodedResultLen = 1 + 9*8

// EncodeResult renders a network Result as stable bytes for the
// content-addressed store; exact, like the testbench encoding.
func EncodeResult(r Result) []byte {
	b := make([]byte, 0, encodedResultLen)
	b = append(b, 1) // layout version
	for _, f := range [...]float64{r.Load, r.AvgLatency, r.P99, r.Throughput, r.AvgHops} {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.BigEndian.AppendUint64(b, uint64(r.Packets))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Cycles))
	b = binary.BigEndian.AppendUint64(b, uint64(r.DrainUsed))
	var sat uint64
	if r.Saturated {
		sat = 1
	}
	b = binary.BigEndian.AppendUint64(b, sat)
	return b
}

// DecodeResult inverts EncodeResult; errors are treated as cache
// misses by callers.
func DecodeResult(b []byte) (Result, error) {
	if len(b) != encodedResultLen || b[0] != 1 {
		return Result{}, fmt.Errorf("network: bad encoded result (%d bytes)", len(b))
	}
	u := func(i int) uint64 { return binary.BigEndian.Uint64(b[1+8*i:]) }
	return Result{
		Load:       math.Float64frombits(u(0)),
		AvgLatency: math.Float64frombits(u(1)),
		P99:        math.Float64frombits(u(2)),
		Throughput: math.Float64frombits(u(3)),
		AvgHops:    math.Float64frombits(u(4)),
		Packets:    int64(u(5)),
		Cycles:     int64(u(6)),
		DrainUsed:  int64(u(7)),
		Saturated:  u(8) != 0,
	}, nil
}
