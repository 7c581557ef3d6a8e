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
//
// -check arms the router checker at the network's terminals
// (check.NewNetAuditor): generation stops at the end of the window, the
// run continues until every generated flit is delivered, and
// network.Run holds a run that drained to the end-of-run audit, whether
// or not it is flagged saturated. A run that passes prints an
// "invariants ok" line; any violation exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"highradix/internal/check"
	"highradix/internal/drive"
	"highradix/internal/network"
	"highradix/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, output streams and exit status made
// explicit, so that a test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("hrnet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		topoName = flags.String("topo", "clos", "topology family: clos|ring|torus")
		radix    = flags.Int("radix", 64, "clos: router radix k")
		digits   = flags.Int("digits", 0, "clos: d with N=k^d terminals (0 = paper default)")
		nodes    = flags.Int("nodes", 16, "ring: router/terminal count")
		dimx     = flags.Int("dimx", 4, "torus: X dimension")
		dimy     = flags.Int("dimy", 4, "torus: Y dimension")
		load     = flags.Float64("load", 0.5, "offered load (fraction of terminal capacity)")
		loads    = flags.String("loads", "", "comma-separated loads to sweep in parallel (overrides -load)")
		warmup   = flags.Int64("warmup", 1500, "warmup cycles")
		measure  = flags.Int64("measure", 3000, "measurement cycles")
		seed     = flags.Uint64("seed", 1, "random seed")
		jobs     = flags.Int("j", 0, "sweep pool workers (0 = GOMAXPROCS, 1 = serial)")
		profile  = flags.String("cpuprofile", "", "write a CPU profile to this file")
		chk      = flags.Bool("check", false, "arm the end-to-end network auditor (drains each run to empty and fails on any violation)")
	)
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "hrnet:", err)
		return code
	}
	if *jobs < 0 {
		return fail(2, fmt.Errorf("-j %d: want a worker count >= 0", *jobs))
	}
	// A phase under one cycle is a usage error: the library would read 0
	// as its default, running a phase the flag did not ask for.
	if *warmup < 1 {
		return fail(2, fmt.Errorf("-warmup %d: want at least one cycle", *warmup))
	}
	if *measure < 1 {
		return fail(2, fmt.Errorf("-measure %d: want at least one cycle", *measure))
	}

	var xs []float64
	if *loads != "" {
		for _, s := range strings.Split(*loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fail(2, fmt.Errorf("bad -loads entry %q: %v", s, err))
			}
			xs = append(xs, v)
		}
	}

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}

	var (
		topo network.Topology
		err  error
	)
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
		return fail(2, err)
	}
	// So is a topology the engine cannot build.
	if err := network.CheckLimits(topo); err != nil {
		return fail(2, err)
	}
	// An offered load no terminal can produce is a usage error, caught
	// before the header prints.
	points := xs
	if points == nil {
		points = []float64{*load}
	}
	for _, l := range points {
		if err := drive.CheckLoad(l, topo.SerCycles(), 1); err != nil {
			return fail(2, err)
		}
	}
	base := network.Options{
		Topo:          topo,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Seed:          *seed,
	}
	// A granted flit lands one link cycle after the router's pipeline
	// delay, so a hop costs HopDelay+1 cycles: at zero load a packet
	// takes per-hop times its hops, plus ser once.
	fmt.Fprintf(stdout, "%s: routers=%d terminals=%d vcs=%d per-hop=%d ser=%d\n",
		topo.Name(), topo.Routers(), topo.Terminals(), topo.VCs(), topo.HopDelay()+1, topo.SerCycles())

	if xs != nil {
		if err := sweepLoads(stdout, base, xs, *jobs, *chk); err != nil {
			return fail(1, err)
		}
		return 0
	}

	base.Load = *load
	if *chk {
		base.Hooks = check.NewNetAuditor(topo.Terminals(), topo.VCs(), topo.SerCycles())
	}
	res, err := network.Run(base)
	if err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stdout, "  load             %.3f of capacity\n", res.Load)
	fmt.Fprintf(stdout, "  avg latency      %.2f cycles (p99 %.1f)\n", res.AvgLatency, res.P99)
	fmt.Fprintf(stdout, "  avg router hops  %.2f\n", res.AvgHops)
	fmt.Fprintf(stdout, "  throughput       %.4f of capacity\n", res.Throughput)
	fmt.Fprintf(stdout, "  labeled packets  %d over %d cycles\n", res.Packets, res.Cycles)
	if *chk {
		fmt.Fprintln(stdout, invariantsOK)
	}
	if res.Saturated {
		fmt.Fprintln(stdout, "  SATURATED")
	}
	return 0
}

// invariantsOK is what an audited run prints once every point it ran
// has passed the checker.
const invariantsOK = "  invariants       ok (conservation, in-order delivery, VC ownership, serializer spacing, progress)"

// sweepLoads fans the offered-load points xs out on the worker pool
// and prints one line per point, truncated at the first saturation,
// then, if chk armed the checker, the line saying every point passed.
func sweepLoads(stdout io.Writer, base network.Options, xs []float64, jobs int, chk bool) error {
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
		if chk {
			// Each point runs on its own goroutine, so each needs its
			// own checker; a shared one would race.
			topo, err := o.Topology()
			if err != nil {
				return sweep.Point{}, err
			}
			o.Hooks = check.NewNetAuditor(topo.Terminals(), topo.VCs(), topo.SerCycles())
		}
		// Curve's run executes slotless; the simulation itself goes
		// through Do so the pool still bounds concurrent runs.
		res, err := sweep.Do(p, func() (network.Result, error) { return network.Run(o) })
		if err != nil {
			return sweep.Point{}, err
		}
		results[i] = res
		return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  %-8s %12s %12s %10s\n", "load", "latency", "throughput", "hops")
	for i := range series.Points {
		res := results[i]
		sat := ""
		if res.Saturated {
			sat = "  SATURATED"
		}
		fmt.Fprintf(stdout, "  %-8.3f %12.2f %12.4f %10.2f%s\n",
			res.Load, res.AvgLatency, res.Throughput, res.AvgHops, sat)
	}
	if chk {
		fmt.Fprintln(stdout, invariantsOK)
	}
	return nil
}
