// Tracereplay: record a workload once, replay it bit-identically
// through different router microarchitectures — the apples-to-apples
// comparison a designer wants when synthetic-traffic randomness would
// otherwise differ between runs. Generates a bursty hotspot-ish trace,
// writes it to a temp file in the library's text format, loads it back,
// and replays it through the baseline and hierarchical routers.
package main

import (
	"fmt"
	"log"
	"os"

	"highradix"
	"highradix/internal/sim"
	"highradix/internal/traffic"
)

func main() {
	// Record: 64-port workload at 15% offered load with a hotspot
	// pattern (hot outputs cap accepted throughput, so moderate load
	// keeps the comparison in steady state).
	rng := sim.NewRNG(2024)
	trace := traffic.GenerateTrace(rng, 64, 6000, 0.15/4, 1, traffic.NewHotspot(64, 8))
	f, err := os.CreateTemp("", "hotspot-*.trace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.Name())
	if _, err := trace.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("recorded %d packets over %d cycles to %s\n\n", trace.Len(), trace.Duration(), f.Name())

	// Load it once and replay the same trace through two architectures:
	// a Trace is immutable, so runs share it.
	in, err := os.Open(f.Name())
	if err != nil {
		log.Fatal(err)
	}
	tr, err := highradix.LoadTrace(in)
	in.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  highradix.RouterConfig
	}{
		{"baseline (unbuffered, CVA)", highradix.RouterConfig{Arch: highradix.Baseline}},
		{"hierarchical p=8", highradix.RouterConfig{Arch: highradix.Hierarchical, SubSize: 8}},
	} {
		res, err := highradix.Simulate(highradix.SimOptions{
			Router:        c.cfg,
			Trace:         tr,
			WarmupCycles:  1000,
			MeasureCycles: 4000,
			Seed:          1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s avg latency %7.1f cycles, p99 %7.1f, throughput %.3f, saturated=%v\n",
			c.name, res.AvgLatency, res.P99, res.Throughput, res.Saturated)
	}
	fmt.Println("\nidentical packets, identical timestamps — the latency difference is purely microarchitecture")
}
