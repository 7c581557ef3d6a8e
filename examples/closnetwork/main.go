// Closnetwork: the system-level payoff of high radix (paper Figure 19).
// Builds two 4096-node Clos networks — one from radix-64 routers (three
// stages) and one from radix-16 routers (five stages) — and compares
// end-to-end packet latency as offered load rises. Fewer, longer hops
// win despite each high-radix router being individually slower.
//
// Run with -small for a 256-node version that finishes in seconds.
package main

import (
	"flag"
	"fmt"
	"log"

	"highradix"
)

func main() {
	small := flag.Bool("small", false, "256-node networks instead of 4096")
	flag.Parse()

	type netCase struct {
		name string
		cfg  highradix.NetworkConfig
	}
	var cases []netCase
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.8}
	if *small {
		cases = []netCase{
			{"radix-16, 3 stages, 256 nodes", highradix.NetworkConfig{Radix: 16, Digits: 2}},
			{"radix-4,  7 stages, 256 nodes", highradix.NetworkConfig{Radix: 4, Digits: 4}},
		}
	} else {
		cases = []netCase{
			{"radix-64, 3 stages, 4096 nodes", highradix.NetworkConfig{Radix: 64, Digits: 2}},
			{"radix-16, 5 stages, 4096 nodes", highradix.NetworkConfig{Radix: 16, Digits: 3}},
		}
	}

	for _, c := range cases {
		topo, err := highradix.NetOptions{Net: c.cfg}.Topology()
		if err != nil {
			log.Fatal(err)
		}
		// A flit lands one link cycle after the router's pipeline delay.
		fmt.Printf("%s  (%d cycles per hop, channel serialization %d cycles)\n",
			c.name, topo.HopDelay()+1, topo.SerCycles())
		for _, load := range loads {
			res, err := highradix.SimulateNetwork(highradix.NetOptions{
				Net:           c.cfg,
				Load:          load,
				WarmupCycles:  1200,
				MeasureCycles: 2500,
				Seed:          2,
			})
			if err != nil {
				log.Fatal(err)
			}
			mark := ""
			if res.Saturated {
				mark = "  (saturated)"
			}
			fmt.Printf("  load %.1f: latency %7.1f cycles, %d router hops%s\n",
				load, res.AvgLatency, int(res.AvgHops), mark)
			if res.Saturated {
				break
			}
		}
		fmt.Println()
	}
	fmt.Println("the high-radix network pays more per hop but takes fewer hops and")
	fmt.Println("serializes packets onto fewer channels: lower latency at every load (Fig 19)")
}
