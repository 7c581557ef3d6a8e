package testbench

import (
	"fmt"
	"math"
	"testing"

	"highradix/internal/router"
)

// The oracles below hold the routers to numbers derived rather than
// simulated: queueing theory for switches with uniform single-flit
// Bernoulli traffic, one VC and one-cycle switch traversal.

// oracleOpts is the runs' common shape: the Section 4.3 phases, with a
// longer window where a mean latency is read to 0.05 cycles.
func oracleOpts(cfg router.Config, load float64, measure int64) Options {
	cfg.VCs, cfg.STCycles = 1, 1
	return Options{Router: cfg, Load: load, WarmupCycles: 3000, MeasureCycles: measure, Seed: 1}
}

// TestBufferedIsOutputQueued holds the fully buffered crossbar with deep
// crosspoint buffers to an output-queued switch: a crosspoint queue never
// fills, so a flit waits only for the flits ahead of it bound for the
// same output. Karol, Hluchyj and Morgan ("Input versus output queueing
// on a space-division packet switch", IEEE Trans. Commun., 1987) give
// that wait as (N-1)/N · p / (2(1-p)) cycles; on top of it the router's
// pipeline is a constant 3 cycles.
func TestBufferedIsOutputQueued(t *testing.T) {
	for _, k := range []int{16, 64} {
		for _, p := range []float64{0.3, 0.6, 0.8} {
			t.Run(fmt.Sprintf("k%d/load%.1f", k, p), func(t *testing.T) {
				cfg := router.Config{Arch: router.ArchBuffered, Radix: k, XpointBufDepth: 64}
				res, err := Run(oracleOpts(cfg, p, 20000))
				if err != nil {
					t.Fatal(err)
				}
				n := float64(k)
				wait := (n - 1) / n * p / (2 * (1 - p))
				if d := res.AvgLatency - 3 - wait; math.Abs(d) > 0.05 {
					t.Errorf("mean latency %.3f: pipeline %.3f cycles beyond the output-queueing wait %.3f, want 3 ± 0.05",
						res.AvgLatency, res.AvgLatency-wait, wait)
				}
			})
		}
	}
}

// TestVOQDepthSetsSaturation holds the VOQ router, Tiny Tera's scheme
// with one-iteration iSLIP (McKeown, IEEE/ACM ToN 1999), to iSLIP's
// result that a single iteration nearly keeps up with uniform traffic:
// with deep VOQs it carries load 0.9. At the default VOQ depth of 4 the
// same allocator saturates near 0.62: with one VC and one-cycle
// traversal the VOQ depth, not the matching, sets where it saturates.
func TestVOQDepthSetsSaturation(t *testing.T) {
	deep := router.Config{Arch: router.ArchVOQ, Radix: 64, XpointBufDepth: 64}
	res, err := Run(oracleOpts(deep, 0.9, 8000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Errorf("VOQ depth 64 saturated at load 0.9 (throughput %.4f, latency %.2f)", res.Throughput, res.AvgLatency)
	}
	shallow := router.Config{Arch: router.ArchVOQ, Radix: 64}
	thr, err := SaturationThroughput(oracleOpts(shallow, 0, 8000))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(thr-0.62) > 0.03 {
		t.Errorf("VOQ depth 4 saturates at %.4f, want 0.62 ± 0.03", thr)
	}
}
