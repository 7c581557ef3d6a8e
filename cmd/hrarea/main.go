// Command hrarea prints the analytic models of the paper's Sections 2
// and 5-6: optimal radix for a technology point, latency/cost versus
// radix, and the storage/wire area comparison between the fully
// buffered and hierarchical crossbars.
//
// Examples:
//
//	hrarea -mode optimal -bandwidth 20e12 -tr 5e-9 -nodes 2048 -packet 256
//	hrarea -mode area -radix 64 -subsize 8
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"highradix/internal/analytic"
	"highradix/internal/area"
	"highradix/internal/experiments"
	"highradix/internal/router"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, output streams and exit status made
// explicit, so that a test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("hrarea", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		mode      = flags.String("mode", "optimal", "optimal|area|power")
		bandwidth = flags.Float64("bandwidth", 20e12, "router bandwidth B (bits/s)")
		tr        = flags.Float64("tr", 5e-9, "per-hop router delay (s)")
		nodes     = flags.Float64("nodes", 2048, "network size N")
		packet    = flags.Float64("packet", 256, "packet length L (bits)")
		radix     = flags.Int("radix", 64, "radix for area mode")
		subsize   = flags.Int("subsize", 8, "subswitch size for area mode")
	)
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "hrarea:", err)
		return 2
	}
	// The analytic modes take logarithms and quotients of their inputs,
	// so each must be finite and > 0, and -nodes >= 2; anything else
	// would print -Inf, NaN or a negative latency.
	inputs := map[string][]string{"optimal": {"bandwidth", "tr", "nodes", "packet"}, "power": {"bandwidth", "nodes"}}
	for _, name := range inputs[*mode] {
		v := flags.Lookup(name).Value.(flag.Getter).Get().(float64)
		ok, want := v > 0, "a finite number > 0"
		if name == "nodes" {
			ok, want = v >= 2, "a finite network size >= 2"
		}
		if !ok || math.IsInf(v, 1) {
			return fail(fmt.Errorf("-%s %g: want %s", name, v, want))
		}
	}

	switch *mode {
	case "optimal":
		tech := analytic.Technology{
			Name: "custom", BandwidthBps: *bandwidth, RouterDelay: *tr,
			Nodes: *nodes, PacketBits: *packet,
		}
		kOpt := tech.OptimalRadixFor()
		fmt.Fprintf(stdout, "aspect ratio A = B*tr*ln(N)/L = %.1f\n", tech.AspectRatio())
		fmt.Fprintf(stdout, "latency-optimal radix (k*ln^2 k = A): %.1f\n", kOpt)
		fmt.Fprintf(stdout, "network latency at k_opt: %.1f ns\n", tech.Latency(kOpt)*1e9)
		for _, k := range []float64{8, 16, 32, 64, 128, 256} {
			fmt.Fprintf(stdout, "  k=%-4.0f latency %7.1f ns   cost %8.0f channels\n",
				k, tech.Latency(k)*1e9, tech.Cost(k))
		}
	case "area":
		m := area.Default()
		// Only routers that can be built are priced: the radix within
		// the router's bounds, and the hierarchical crossbar's own rule
		// that k/p subswitches of p ports each span it.
		k, p := *radix, *subsize
		if k < 2 || k > router.MaxRadix {
			return fail(fmt.Errorf("-radix %d: want a radix in [2, %d]", k, router.MaxRadix))
		}
		if p < 1 || k%p != 0 {
			return fail(fmt.Errorf("-subsize %d: want a subswitch size >= 1 that divides -radix %d", p, k))
		}
		// Each router is built at the default config and priced by the
		// buffers it holds.
		def := router.Config{}.WithDefaults()
		fb := experiments.Price(m, router.Config{Arch: router.ArchBuffered, Radix: k})
		h := experiments.Price(m, router.Config{Arch: router.ArchHierarchical, Radix: k, SubSize: p})
		fmt.Fprintf(stdout, "radix %d, v=%d, %d-flit buffers, %d-bit flits\n", k, def.VCs, def.XpointBufDepth, m.FlitBits)
		fmt.Fprintf(stdout, "  fully buffered storage: %.3g bits (%.1f mm^2)\n", fb.Bits, fb.StorageMm2)
		fmt.Fprintf(stdout, "  hierarchical p=%d:      %.3g bits (%.1f mm^2), %.0f%% saving\n",
			p, h.Bits, h.StorageMm2, 100*(1-h.Bits/fb.Bits))
		fmt.Fprintf(stdout, "  baseline (inputs only): %.3g bits\n",
			experiments.Price(m, router.Config{Arch: router.ArchBaseline, Radix: k}).Bits)
		fmt.Fprintf(stdout, "  wire area:              %.1f mm^2 (storage %.1f mm^2; crossover radix %d)\n",
			fb.WireMm2, fb.StorageMm2, experiments.Crossover(m))
	case "power":
		p := analytic.DefaultPower(*bandwidth)
		fmt.Fprintf(stdout, "router bandwidth %.3g b/s, network of %.0f nodes\n", *bandwidth, *nodes)
		for _, k := range []float64{8, 16, 32, 64, 128, 256} {
			fmt.Fprintf(stdout, "  k=%-4.0f router %5.1f W (arb %4.2f%%), network %6.0f routers, %8.0f W total\n",
				k, p.RouterWatts(k), 100*p.ArbFraction(k),
				analytic.NetworkRouters(k, *nodes), p.NetworkWatts(k, *nodes))
		}
		fmt.Fprintln(stdout, "per-router power is nearly radix-independent; network power falls with radix (Section 2)")
	default:
		return fail(fmt.Errorf("unknown mode %q", *mode))
	}
	return 0
}
