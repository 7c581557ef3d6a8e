// Command hrnet runs the network-scale simulation: the Clos of the
// paper's Figure 19 (N = k^d terminals, 2d-1 stages of radix-k routers,
// oblivious random-middle-stage routing) or the ring and 2D-torus
// extensions.
//
// Examples:
//
//	hrnet -radix 64 -digits 2 -load 0.6        # 4096 nodes, 3 stages
//	hrnet -radix 16 -digits 3 -load 0.6        # 4096 nodes, 5 stages
//	hrnet -radix 64 -loads 0.1,0.3,0.5,0.7,0.9 # latency-load sweep
//	hrnet -topo ring -nodes 16 -load 0.3       # 16-node ring, dateline VCs
//	hrnet -topo torus -dimx 4 -dimy 4 -load 0.4
//
// A run shards itself over the CPUs the process leaves spare when the
// network has 4096 terminals or more (network.Run); the output is
// byte-identical on any number of CPUs. With -loads, the listed
// offered-load points run in parallel on a worker pool (-j workers,
// default GOMAXPROCS; each run owns its RNG, so the table is identical
// at every -j) and the sweep stops at the first saturated point, like
// the paper's curves.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"highradix/internal/check"
	"highradix/internal/network"
	"highradix/internal/sweep"
	"highradix/internal/traffic"
)

func main() {
	var (
		topoName = flag.String("topo", "clos", "topology family: clos|ring|torus")
		radix    = flag.Int("radix", 64, "clos: router radix k")
		digits   = flag.Int("digits", 0, "clos: d with N=k^d terminals (0 = paper default)")
		nodes    = flag.Int("nodes", 16, "ring: router/terminal count")
		dimx     = flag.Int("dimx", 4, "torus: X dimension")
		dimy     = flag.Int("dimy", 4, "torus: Y dimension")
		load     = flag.Float64("load", 0.5, "offered load (fraction of terminal capacity)")
		loads    = flag.String("loads", "", "comma-separated loads to sweep in parallel (overrides -load)")
		warmup   = flag.Int64("warmup", 1500, "warmup cycles")
		measure  = flag.Int64("measure", 3000, "measurement cycles")
		seed     = flag.Uint64("seed", 1, "random seed")
		jobs     = flag.Int("j", 0, "sweep pool workers (0 = GOMAXPROCS, 1 = serial)")
		profile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		chk      = flag.Bool("check", false, "arm the end-to-end network auditor (drains each run to empty and fails on any violation)")
		inj      = flag.String("inj", "percycle", "injection sampling: percycle|gap (gap is event-driven, O(events) at low load, distribution-equivalent)")
	)
	flag.Parse()

	injMode, err := traffic.InjModeByName(*inj)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrnet:", err)
		os.Exit(2)
	}

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hrnet:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hrnet:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var topo network.Topology
	switch *topoName {
	case "clos":
		topo, err = network.NewClos(network.Config{Radix: *radix, Digits: *digits})
	case "ring":
		topo, err = network.NewTorus(network.TorusConfig{X: *nodes, Y: 1})
	case "torus":
		topo, err = network.NewTorus(network.TorusConfig{X: *dimx, Y: *dimy})
	default:
		err = fmt.Errorf("unknown -topo %q (want clos, ring or torus)", *topoName)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrnet:", err)
		os.Exit(2)
	}
	base := network.Options{
		Topo:          topo,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Seed:          *seed,
		Injection:     injMode,
	}
	fmt.Printf("%s: routers=%d terminals=%d vcs=%d hop-delay=%d ser=%d\n",
		topo.Name(), topo.Routers(), topo.Terminals(), topo.VCs(), topo.HopDelay(), topo.SerCycles())

	if *loads != "" {
		if err := sweepLoads(base, *loads, *jobs, *chk); err != nil {
			fmt.Fprintln(os.Stderr, "hrnet:", err)
			os.Exit(1)
		}
		return
	}

	base.Load = *load
	var aud *check.NetAuditor
	if *chk {
		aud = check.NewNetAuditor(topo.Terminals(), topo.SerCycles(), check.Options{})
		base.Hooks = aud
	}
	res, err := network.Run(base)
	if err == nil && aud != nil && !res.Saturated {
		// A saturated run legitimately fails to drain inside the cycle
		// budget; only a completed drain is held to the empty-network
		// postcondition.
		err = aud.Final(res.Cycles)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrnet:", err)
		os.Exit(1)
	}
	fmt.Printf("  load             %.3f of capacity\n", res.Load)
	fmt.Printf("  avg latency      %.2f cycles (p99 %.1f)\n", res.AvgLatency, res.P99)
	fmt.Printf("  avg router hops  %.2f\n", res.AvgHops)
	fmt.Printf("  throughput       %.4f of capacity\n", res.Throughput)
	fmt.Printf("  labeled packets  %d over %d cycles\n", res.Packets, res.Cycles)
	if aud != nil && !res.Saturated {
		fmt.Println("  invariants       ok (conservation, in-order delivery, serializer spacing, progress)")
	}
	if res.Saturated {
		fmt.Println("  SATURATED")
	}
}

// sweepLoads fans the listed offered-load points out on the worker pool
// and prints one line per point, truncated at the first saturation.
func sweepLoads(base network.Options, list string, jobs int, chk bool) error {
	var xs []float64
	for _, s := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad -loads entry %q: %v", s, err)
		}
		xs = append(xs, v)
	}
	p := sweep.New(jobs)
	results := make([]network.Result, len(xs))
	// Sweep over point indices so each parallel run writes its own
	// results slot; Curve truncates at the first saturated point.
	idxs := make([]float64, len(xs))
	for i := range idxs {
		idxs[i] = float64(i)
	}
	series, err := sweep.Curve(p, "sweep", idxs, func(idx float64) (sweep.Point, error) {
		i := int(idx)
		o := base
		o.Load = xs[i]
		var aud *check.NetAuditor
		if chk {
			// Each point runs on its own goroutine, so each needs its
			// own auditor; a shared one would race.
			topo, err := o.Topology()
			if err != nil {
				return sweep.Point{}, err
			}
			aud = check.NewNetAuditor(topo.Terminals(), topo.SerCycles(), check.Options{})
			o.Hooks = aud
		}
		// Curve's run executes slotless; the simulation itself goes
		// through Do so the pool still bounds concurrent runs.
		res, err := sweep.Do(p, func() (network.Result, error) { return network.Run(o) })
		if err == nil && aud != nil && !res.Saturated {
			err = aud.Final(res.Cycles)
		}
		if err != nil {
			return sweep.Point{}, err
		}
		results[i] = res
		return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("  %-8s %12s %12s %10s\n", "load", "latency", "throughput", "hops")
	for i := range series.Points {
		res := results[i]
		sat := ""
		if res.Saturated {
			sat = "  SATURATED"
		}
		fmt.Printf("  %-8.3f %12.2f %12.4f %10.2f%s\n",
			res.Load, res.AvgLatency, res.Throughput, res.AvgHops, sat)
	}
	return nil
}
