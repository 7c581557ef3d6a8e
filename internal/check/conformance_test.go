package check_test

import (
	"fmt"
	"testing"

	"highradix/internal/check"
	"highradix/internal/network"
	"highradix/internal/router"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// conformanceConfigs is every router variant the suite holds to the
// invariants: each registered architecture's representative variants at
// radix 16 — the option axes that change allocator behavior (OVA
// speculation, prioritized arbiters, ideal credit return, iteration
// counts) come straight from the registry, so a newly registered
// architecture is conformance-checked by construction.
func conformanceConfigs() map[string]router.Config {
	m := map[string]router.Config{}
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		for _, vt := range d.Variants(16, 2) {
			m[vt.Name] = vt.Config
		}
	}
	return m
}

// TestConformanceCoversRegistry asserts the suite's coverage is total:
// every registered architecture contributes at least one variant to
// conformanceConfigs, so no policy can be registered without being
// held to the invariants.
func TestConformanceCoversRegistry(t *testing.T) {
	cfgs := conformanceConfigs()
	covered := map[router.Arch]bool{}
	for _, cfg := range cfgs {
		covered[cfg.Arch] = true
	}
	for _, a := range router.Registered() {
		if !covered[a] {
			t.Errorf("architecture %v has no variant in the conformance suite", a)
		}
	}
}

var conformancePatterns = []string{
	"uniform", "diagonal", "hotspot", "worstcase", "bitcomp", "bitrev", "transpose", "shuffle",
}

// TestConformance runs every architecture variant under every traffic
// pattern with the invariant checker armed, requiring each run to
// drain to empty with no violation. This is the cross-architecture
// behavioral contract: whatever the allocator microarchitecture, no
// configuration may lose, duplicate, reorder or interleave flits,
// overrun a buffer, or stall without progress.
func TestConformance(t *testing.T) {
	for name, cfg := range conformanceConfigs() {
		for _, pat := range conformancePatterns {
			name, cfg, pat := name, cfg, pat
			t.Run(fmt.Sprintf("%s/%s", name, pat), func(t *testing.T) {
				t.Parallel()
				p, err := traffic.ByName(pat, 16, 4, 4)
				if err != nil {
					t.Fatal(err)
				}
				res, err := testbench.Run(testbench.Options{
					Router:        cfg,
					Pattern:       p,
					Load:          0.25,
					PktLen:        2,
					WarmupCycles:  300,
					MeasureCycles: 700,
					Seed:          7,
					Check:         true,
				})
				if err != nil {
					t.Fatalf("invariant violation: %v", err)
				}
				if res.Saturated {
					t.Fatalf("saturated at load 0.25 — the conformance load must be sustainable")
				}
				if res.Packets == 0 {
					t.Fatal("no labeled packets delivered; the run was vacuous")
				}
			})
		}
	}
}

// TestConformanceBursty repeats the sweep's stress axis: Markov ON/OFF
// bursty injection, which drives buffers much closer to full than
// Bernoulli at the same average load.
func TestConformanceBursty(t *testing.T) {
	for name, cfg := range conformanceConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := testbench.Run(testbench.Options{
				Router:        cfg,
				Bursty:        true,
				Load:          0.3,
				PktLen:        3,
				WarmupCycles:  300,
				MeasureCycles: 700,
				Seed:          11,
				Check:         true,
			})
			if err != nil {
				t.Fatalf("invariant violation: %v", err)
			}
			if res.Packets == 0 {
				t.Fatal("no labeled packets delivered; the run was vacuous")
			}
		})
	}
}

// TestClosConformance audits the Clos network end to end under every
// traffic pattern valid for its terminal count: injection/delivery
// conservation, per-packet in-order delivery, terminal serializer
// spacing and progress, with the run drained to empty.
func TestClosConformance(t *testing.T) {
	// radix 4, 2 digits: 16 terminals (a power of two with an even bit
	// count, so every deterministic pattern is well formed).
	cfg := network.Config{Radix: 4, Digits: 2}
	full := cfg.WithDefaults()
	for _, pat := range conformancePatterns {
		for _, pktLen := range []int{1, 3} {
			pat, pktLen := pat, pktLen
			t.Run(fmt.Sprintf("%s/pkt%d", pat, pktLen), func(t *testing.T) {
				t.Parallel()
				p, err := traffic.ByName(pat, full.Terminals(), 4, 4)
				if err != nil {
					t.Fatal(err)
				}
				aud := check.NewNetAuditor(full.Terminals(), full.SerCycles, check.Options{})
				res, err := network.Run(network.Options{
					Net:           cfg,
					Load:          0.3,
					PktLen:        pktLen,
					WarmupCycles:  300,
					MeasureCycles: 700,
					Seed:          5,
					Pattern:       p,
					Hooks:         aud,
				})
				if err != nil {
					t.Fatalf("invariant violation: %v", err)
				}
				if res.Saturated {
					t.Fatal("saturated at load 0.3 — the conformance load must be sustainable")
				}
				if err := aud.Final(res.Cycles); err != nil {
					t.Fatalf("final audit: %v", err)
				}
				if aud.DeliveredPackets() == 0 {
					t.Fatal("no packets delivered; the run was vacuous")
				}
			})
		}
	}
}

// TestTopologyConformance extends the network audit to the ring and
// torus families, serial and sharded, and to the Clos sharded:
// conservation, in-order per-packet delivery, terminal serializer
// spacing, and a drained final state, under every traffic pattern.
// Loads sit under each family's worst pattern capacity (the diagonal is
// the ring's tornado, whose capacity on 16 nodes is ~0.12).
func TestTopologyConformance(t *testing.T) {
	ring, err := network.NewTorus(network.TorusConfig{X: 16, Y: 1})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := network.NewTorus(network.TorusConfig{X: 4, Y: 4})
	if err != nil {
		t.Fatal(err)
	}
	clos, err := network.NewClos(network.Config{Radix: 4, Digits: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		topo network.Topology
		load float64
	}{{ring, 0.08}, {torus, 0.15}, {clos, 0.3}}
	for _, tc := range cases {
		for _, pat := range conformancePatterns {
			for _, pktLen := range []int{1, 3} {
				// Workers 0 runs the one-engine world; the sharded runs keep
				// the same auditor armed across the barrier replay.
				for _, workers := range []int{0, 3} {
					tc, pat, pktLen, workers := tc, pat, pktLen, workers
					t.Run(fmt.Sprintf("%s/%s/pkt%d/w%d", tc.topo.Name(), pat, pktLen, workers), func(t *testing.T) {
						t.Parallel()
						p, err := traffic.ByName(pat, tc.topo.Terminals(), 4, 4)
						if err != nil {
							t.Fatal(err)
						}
						aud := check.NewNetAuditor(tc.topo.Terminals(), tc.topo.SerCycles(), check.Options{})
						o := network.Options{
							Topo:          tc.topo,
							Load:          tc.load,
							PktLen:        pktLen,
							WarmupCycles:  300,
							MeasureCycles: 700,
							Seed:          5,
							Pattern:       p,
							Hooks:         aud,
						}
						var res network.Result
						if workers == 0 {
							res, err = network.RunSerial(o)
						} else {
							res, err = network.RunSharded(o, workers)
						}
						if err != nil {
							t.Fatalf("invariant violation: %v", err)
						}
						if res.Saturated {
							t.Fatalf("saturated at load %v — the conformance load must be sustainable", tc.load)
						}
						if err := aud.Final(res.Cycles); err != nil {
							t.Fatalf("final audit: %v", err)
						}
						if aud.DeliveredPackets() == 0 {
							t.Fatal("no packets delivered; the run was vacuous")
						}
					})
				}
			}
		}
	}
}
