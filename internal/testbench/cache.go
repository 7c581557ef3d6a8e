package testbench

import (
	"encoding/binary"
	"fmt"
	"math"

	"highradix/internal/cache"
)

// CacheKey returns the content address of this run's Result
// (cache.KeyOf over the defaulted options, router included), or ok=false
// when the run cannot be cached: a trace replay, an Observer or
// OnMeasureStart hook (callbacks fire during simulation; serving from
// the cache would silently skip them), or a pattern declared outside
// internal/traffic. NoFastForward is tagged out of the key: fast-forward
// is byte-identical by contract (the twin and fuzz equivalence suites),
// so both stepping modes share one entry.
func (o Options) CacheKey() (key cache.Key, ok bool) {
	o = o.withDefaults()
	o.Router = o.Router.WithDefaults()
	return cache.KeyOf(o)
}

// encodedResultLen is the fixed EncodeResult payload size: a version
// byte plus nine 8-byte fields.
const encodedResultLen = 1 + 9*8

// EncodeResult renders a Result as stable bytes for the content-
// addressed store: fixed field order, IEEE-754 bit patterns for floats,
// big-endian two's complement for counters. The encoding is exact — a
// decoded Result is ==-identical to the encoded one — which is what
// makes cached and recomputed figure tables byte-identical.
func EncodeResult(r Result) []byte {
	b := make([]byte, 0, encodedResultLen)
	b = append(b, 1) // layout version
	for _, f := range [...]float64{r.Load, r.AvgLatency, r.P50, r.P99, r.Throughput, r.RelErr99} {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.BigEndian.AppendUint64(b, uint64(r.Packets))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Cycles))
	var sat uint64
	if r.Saturated {
		sat = 1
	}
	b = binary.BigEndian.AppendUint64(b, sat)
	return b
}

// DecodeResult inverts EncodeResult. An unexpected length or layout
// version is an error; callers treat it as a cache miss and recompute.
func DecodeResult(b []byte) (Result, error) {
	if len(b) != encodedResultLen || b[0] != 1 {
		return Result{}, fmt.Errorf("testbench: bad encoded result (%d bytes)", len(b))
	}
	u := func(i int) uint64 { return binary.BigEndian.Uint64(b[1+8*i:]) }
	return Result{
		Load:       math.Float64frombits(u(0)),
		AvgLatency: math.Float64frombits(u(1)),
		P50:        math.Float64frombits(u(2)),
		P99:        math.Float64frombits(u(3)),
		Throughput: math.Float64frombits(u(4)),
		RelErr99:   math.Float64frombits(u(5)),
		Packets:    int64(u(6)),
		Cycles:     int64(u(7)),
		Saturated:  u(8) != 0,
	}, nil
}
