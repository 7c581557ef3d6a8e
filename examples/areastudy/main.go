// Areastudy: the design-space walk of Sections 2, 5 and 6. Given a
// technology point (bandwidth, router delay, network size, packet
// length), find the latency-optimal radix, then compare the silicon
// cost of building that radix as a fully buffered crossbar versus the
// paper's hierarchical crossbar.
package main

import (
	"fmt"
	"log"

	"highradix"
)

func main() {
	// Step 1 — Section 2: what radix should a 2010-technology router
	// have? (20 Tb/s, 5 ns per hop, 2048 nodes, 256-bit packets.)
	tech := highradix.Tech2010
	a := tech.AspectRatio()
	kOpt := highradix.OptimalRadix(a)
	fmt.Printf("technology %s: aspect ratio %.0f -> optimal radix %.0f\n", tech.Name, a, kOpt)
	fmt.Printf("  latency at k_opt: %.0f ns; at k=16: %.0f ns; at k=256: %.0f ns\n",
		tech.Latency(kOpt)*1e9, tech.Latency(16)*1e9, tech.Latency(256)*1e9)

	// Step 2 — Sections 5-6: what does a radix-64 switch cost to build?
	// Each router is built at the default config and priced by the
	// buffers it holds.
	m := highradix.DefaultAreaModel()
	def := highradix.RouterConfig{}.WithDefaults()
	const k = 64
	fmt.Printf("\nbuffer storage at k=%d, v=%d, %d-flit buffers:\n", k, def.VCs, def.XpointBufDepth)
	fb := price(m, highradix.RouterConfig{Arch: highradix.Buffered, Radix: k})
	fmt.Printf("  fully buffered crossbar : %8.2e bits (%5.1f mm^2 storage)\n", fb.Bits, fb.StorageMm2)
	for _, p := range []int{4, 8, 16, 32} {
		h := price(m, highradix.RouterConfig{Arch: highradix.Hierarchical, Radix: k, SubSize: p})
		fmt.Printf("  hierarchical p=%-2d       : %8.2e bits (%5.1f mm^2), total-area saving %4.1f%%\n",
			p, h.Bits, h.StorageMm2, 100*(1-h.TotalMm2()/fb.TotalMm2()))
	}

	// Step 3 — Figure 15: where does buffering start to dominate the
	// die?
	fmt.Printf("\nstorage vs wire area (fully buffered):\n")
	for _, kk := range []int{16, 32, 48, 64, 128, 256} {
		a := price(m, highradix.RouterConfig{Arch: highradix.Buffered, Radix: kk})
		dom := "wire-dominated"
		if a.StorageMm2 > a.WireMm2 {
			dom = "storage-dominated"
		}
		fmt.Printf("  k=%-4d storage %6.1f mm^2, wire %5.1f mm^2  (%s)\n", kk, a.StorageMm2, a.WireMm2, dom)
	}
	fmt.Printf("  crossover at radix %d (paper: ~50)\n", highradix.AreaCrossover(m))
}

func price(m highradix.AreaModel, cfg highradix.RouterConfig) highradix.RouterArea {
	a, err := highradix.PriceRouter(m, cfg)
	if err != nil {
		log.Fatal(err)
	}
	return a
}
