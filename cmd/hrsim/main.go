// Command hrsim runs one single-router simulation and reports latency,
// throughput and saturation, exposing every knob of the router
// configurations studied by the paper.
//
// With -packets N it then prints the timelines of the first N packets
// whose head flit is accepted at or after warm-up: when each flit was
// accepted, granted through each stage, NACKed and ejected. It is the
// debugging view of the router models — e.g. watching a speculative
// head flit collect NACKs while the output VC it bids for is busy.
//
// Examples:
//
//	hrsim -arch hierarchical -subsize 8 -load 0.7
//	hrsim -arch baseline -va OVA -load 0.5 -pkt 10
//	hrsim -arch buffered -xpbuf 16 -pattern hotspot -load 0.4
//	hrsim -arch baseline -va CVA -load 0.6 -packets 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"highradix/internal/drive"
	"highradix/internal/router"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, output streams and exit status made
// explicit, so that a test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("hrsim", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		arch    = flags.String("arch", "hierarchical", strings.Join(router.ArchNames(), "|"))
		radix   = flags.Int("radix", 64, "router radix k")
		vcs     = flags.Int("vcs", 4, "virtual channels v")
		subsize = flags.Int("subsize", 8, "hierarchical subswitch size p")
		xpbuf   = flags.Int("xpbuf", 4, "crosspoint/subswitch buffer depth per VC (flits)")
		va      = flags.String("va", "CVA", "baseline VC allocation: CVA|OVA")
		prio    = flags.Bool("prioritized", false, "dual spec/nonspec switch arbiters (baseline)")
		ideal   = flags.Bool("idealcredit", false, "ideal credit return instead of shared bus")
		load    = flags.Float64("load", 0.5, "offered load (fraction of capacity)")
		pkt     = flags.Int("pkt", 1, "packet length in flits")
		pattern = flags.String("pattern", "uniform", "uniform|diagonal|hotspot|worstcase|bitcomp|bitrev|transpose|shuffle")
		bursty  = flags.Bool("bursty", false, "Markov ON/OFF injection (avg burst 8)")
		warmup  = flags.Int64("warmup", 3000, "warmup cycles")
		measure = flags.Int64("measure", 8000, "measurement cycles")
		seed    = flags.Uint64("seed", 1, "random seed")
		trace   = flags.String("trace", "", "replay a trace file (cycle,src,dst[,len] lines) instead of synthetic traffic")
		events  = flags.Int("events", 0, "print the first N microarchitectural events (accept/grant/nack/eject)")
		packets = flags.Int("packets", 0, "after the summary, print the timelines of the first N packets accepted after warm-up")
		chk     = flags.Bool("check", false, "arm the cycle-level invariant checker (drains the run to empty and fails on any violation)")
	)
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "hrsim:", err)
		return code
	}
	// A negative count is a usage error: -packets would track every packet.
	if *events < 0 {
		return fail(2, fmt.Errorf("-events %d: want a count >= 0", *events))
	}
	if *packets < 0 {
		return fail(2, fmt.Errorf("-packets %d: want a count >= 0", *packets))
	}
	// So is a phase under one cycle: the library would read 0 as its
	// default, running a phase the flag did not ask for.
	if *warmup < 1 {
		return fail(2, fmt.Errorf("-warmup %d: want at least one cycle", *warmup))
	}
	if *measure < 1 {
		return fail(2, fmt.Errorf("-measure %d: want at least one cycle", *measure))
	}

	a, err := router.ArchByName(*arch)
	if err != nil {
		return fail(2, err)
	}
	vaScheme, err := router.VAByName(*va)
	if err != nil {
		return fail(2, err)
	}
	cfg := router.Config{
		Arch:           a,
		Radix:          *radix,
		VCs:            *vcs,
		SubSize:        *subsize,
		XpointBufDepth: *xpbuf,
		VA:             vaScheme,
		Prioritized:    *prio,
		IdealCredit:    *ideal,
	}
	// A router that cannot be built is a usage error, caught before
	// anything is sized by the radix. The pattern and the header take
	// the router's own radix, VCs and subswitch size, defaults filled in.
	full := cfg.WithDefaults()
	if err := full.Validate(); err != nil {
		return fail(2, err)
	}
	// timelines holds the flit events of each tracked packet: the first
	// *packets whose head is accepted at or after warm-up. Request-level
	// events (baseline NACKs) carry no flit and join no timeline.
	timelines := map[uint64][]router.Event{}
	var tracked []uint64
	if *events > 0 || *packets > 0 {
		remaining := *events
		cfg.Observer = router.ObserverFunc(func(e router.Event) {
			if remaining > 0 {
				remaining--
				id := uint64(0)
				if e.Flit != nil {
					id = e.Flit.PacketID
				}
				fmt.Fprintf(stdout, "cycle %6d  %-6s pkt=%-6d in=%-3d out=%-3d vc=%d %s\n",
					e.Cycle, e.Kind, id, e.Input, e.Output, e.VC, e.Note)
			}
			if e.Flit == nil {
				return
			}
			id := e.Flit.PacketID
			if _, ok := timelines[id]; !ok {
				if len(tracked) == *packets || e.Kind != router.EvAccept || !e.Flit.Head || e.Cycle < *warmup {
					return
				}
				tracked = append(tracked, id)
			}
			// The router recycles a flit once it ejects: keep a copy.
			f := *e.Flit
			e.Flit = &f
			timelines[id] = append(timelines[id], e)
		})
	}
	opts := testbench.Options{
		Router:        cfg,
		Bursty:        *bursty,
		Load:          *load,
		PktLen:        *pkt,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Seed:          *seed,
		Check:         *chk,
	}.WithDefaults()
	if *trace == "" {
		// A synthetic run's pattern must fit the router, and its offered
		// load must be one a source can produce; a replay uses neither.
		if opts.Pattern, err = traffic.ByName(*pattern, full.Radix, full.SubSize, 8); err != nil {
			return fail(2, err)
		}
		if err := drive.CheckLoad(*load, full.STCycles, opts.PktLen); err != nil {
			return fail(2, err)
		}
	} else {
		f, err := os.Open(*trace)
		if err != nil {
			return fail(1, err)
		}
		opts.Trace, err = traffic.LoadTrace(f)
		f.Close()
		if err != nil {
			return fail(1, err)
		}
	}
	res, err := testbench.Run(opts)
	if err != nil {
		return fail(1, err)
	}
	// A replay offers its trace, not the pattern, load or packet length.
	if opts.Trace == nil {
		fmt.Fprintf(stdout, "arch=%s radix=%d vcs=%d pattern=%s load=%.3f pkt=%d\n",
			a, full.Radix, full.VCs, opts.Pattern.Name(), *load, opts.PktLen)
	} else {
		fmt.Fprintf(stdout, "arch=%s radix=%d vcs=%d trace=%s packets=%d\n",
			a, full.Radix, full.VCs, *trace, opts.Trace.Len())
	}
	fmt.Fprintf(stdout, "  avg latency      %.2f cycles (p50 %.1f, p99 %.1f)\n", res.AvgLatency, res.P50, res.P99)
	fmt.Fprintf(stdout, "  throughput       %.4f of capacity\n", res.Throughput)
	fmt.Fprintf(stdout, "  labeled packets  %d (99%% CI half-width %.2f%% of mean)\n", res.Packets, 100*res.RelErr99)
	fmt.Fprintf(stdout, "  simulated cycles %d\n", res.Cycles)
	if *chk {
		fmt.Fprintln(stdout, "  invariants       ok (conservation, credits, ordering, VC ownership, progress)")
	}
	if res.Saturated {
		fmt.Fprintln(stdout, "  SATURATED: offered load exceeds sustainable throughput at this configuration")
	}
	if len(tracked) > 0 {
		fmt.Fprintln(stdout)
	}
	slices.Sort(tracked)
	for _, id := range tracked {
		evs := timelines[id]
		first := evs[0]
		fmt.Fprintf(stdout, "packet %d: %d -> %d, %d flits\n", id, first.Flit.Src, first.Flit.Dst, first.Flit.PacketLen)
		for _, e := range evs {
			note := e.Note
			if note != "" {
				note = " @" + note
			}
			fmt.Fprintf(stdout, "  +%4d  %-6s flit %d/%d  in=%d out=%d vc=%d%s\n",
				e.Cycle-first.Cycle, e.Kind, e.Flit.Seq+1, e.Flit.PacketLen, e.Input, e.Output, e.VC, note)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
