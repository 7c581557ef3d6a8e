package network

import (
	"encoding/binary"
	"fmt"
	"math"

	"highradix/internal/cache"
	"highradix/internal/traffic"
)

// netResultSchema versions the network CacheKey canonical form and the
// EncodeResult payload together; bump on any change to either, or to
// the network engine's cycle structure (which would change results for
// unchanged options).
const netResultSchema = "netrun/v1"

// CanonicalTopology is implemented by topologies that can describe
// themselves exactly for result caching. The three built-in families
// implement it from their defaulted config structs; a custom Topology
// without it makes the run uncacheable (its wiring and NextHop are
// arbitrary code, so no generic description is sound).
type CanonicalTopology interface {
	Canonical() string
}

// Canonical returns the canonical cache description of the Clos. The
// defaulted config pins radix, digits, VCs, buffering, all delays and
// the construction seed, which together determine the wiring and
// NextHop exactly.
func (c *Clos) Canonical() string { return fmt.Sprintf("clos%+v", c.cfg) }

// Canonical returns the canonical cache description of the torus (the
// ring included: its Y = 1 is in the config).
func (t *Torus) Canonical() string { return fmt.Sprintf("torus%+v", t.cfg) }

// CacheKey returns the content address of this run's Result, or
// ok=false when the run cannot be cached: hooked runs (the hooks
// observe every injection and delivery; serving from cache would skip
// them), topologies outside CanonicalTopology, and custom traffic
// patterns. Defaults are applied before keying. NoFastForward is
// excluded for the same reason as in testbench: fast-forward is
// byte-identical by contract, so both modes share one entry. The
// worker count of the sharded runner never appears at all — shard
// equivalence is byte-exact at every count, so serial and sharded runs
// of one configuration are the same cache entry.
func (o Options) CacheKey() (key cache.Key, ok bool) {
	o = o.WithDefaults()
	if o.Hooks != nil {
		return "", false
	}
	topo, err := o.Topology()
	if err != nil {
		return "", false
	}
	ct, ok := topo.(CanonicalTopology)
	if !ok {
		return "", false
	}
	pat, ok := traffic.Canonical(o.Pattern)
	if !ok {
		return "", false
	}
	b := cache.NewKey(netResultSchema)
	b.Field("topo", ct.Canonical())
	b.Field("pattern", pat)
	b.Fieldf("load", "%g", o.Load)
	b.Fieldf("pktlen", "%d", o.PktLen)
	b.Fieldf("warmup", "%d", o.WarmupCycles)
	b.Fieldf("measure", "%d", o.MeasureCycles)
	b.Fieldf("drain", "%d", o.DrainCycles)
	b.Fieldf("satlatency", "%g", o.SatLatency)
	b.Fieldf("seed", "%d", o.Seed)
	b.Fieldf("inj", "%s", o.Injection)
	return b.Key(), true
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
