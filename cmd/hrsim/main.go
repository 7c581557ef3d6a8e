// Command hrsim runs one single-router simulation and reports latency,
// throughput and saturation, exposing every knob of the router
// configurations studied by the paper.
//
// Examples:
//
//	hrsim -arch hierarchical -subsize 8 -load 0.7
//	hrsim -arch baseline -va OVA -load 0.5 -pkt 10
//	hrsim -arch buffered -xpbuf 16 -pattern hotspot -load 0.4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"highradix/internal/router"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

func main() {
	var (
		arch    = flag.String("arch", "hierarchical", strings.Join(router.ArchNames(), "|"))
		radix   = flag.Int("radix", 64, "router radix k")
		vcs     = flag.Int("vcs", 4, "virtual channels v")
		subsize = flag.Int("subsize", 8, "hierarchical subswitch size p")
		xpbuf   = flag.Int("xpbuf", 4, "crosspoint/subswitch buffer depth per VC (flits)")
		va      = flag.String("va", "CVA", "baseline VC allocation: CVA|OVA")
		prio    = flag.Bool("prioritized", false, "dual spec/nonspec switch arbiters (baseline)")
		ideal   = flag.Bool("idealcredit", false, "ideal credit return instead of shared bus")
		load    = flag.Float64("load", 0.5, "offered load (fraction of capacity)")
		pkt     = flag.Int("pkt", 1, "packet length in flits")
		pattern = flag.String("pattern", "uniform", "uniform|diagonal|hotspot|worstcase|bitcomp|bitrev|transpose|shuffle")
		bursty  = flag.Bool("bursty", false, "Markov ON/OFF injection (avg burst 8)")
		warmup  = flag.Int64("warmup", 3000, "warmup cycles")
		measure = flag.Int64("measure", 8000, "measurement cycles")
		seed    = flag.Uint64("seed", 1, "random seed")
		trace   = flag.String("trace", "", "replay a trace file (cycle,src,dst[,len] lines) instead of synthetic traffic")
		events  = flag.Int("events", 0, "print the first N microarchitectural events (accept/grant/nack/eject)")
		chk     = flag.Bool("check", false, "arm the cycle-level invariant checker (drains the run to empty and fails on any violation)")
		inj     = flag.String("inj", "percycle", "injection sampling: percycle|gap (gap is event-driven, O(events) at low load, distribution-equivalent)")
	)
	flag.Parse()

	injMode, err := traffic.InjModeByName(*inj)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrsim:", err)
		os.Exit(2)
	}

	a, err := router.ArchByName(*arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrsim:", err)
		os.Exit(2)
	}
	vaScheme, err := router.VAByName(*va)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrsim:", err)
		os.Exit(2)
	}
	pat, err := traffic.ByName(*pattern, *radix, *subsize, 8)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrsim:", err)
		os.Exit(2)
	}
	cfg := router.Config{
		Arch:           a,
		Radix:          *radix,
		VCs:            *vcs,
		SubSize:        *subsize,
		XpointBufDepth: *xpbuf,
		SubInDepth:     *xpbuf,
		SubOutDepth:    *xpbuf,
		VA:             vaScheme,
		Prioritized:    *prio,
		IdealCredit:    *ideal,
	}
	if *events > 0 {
		remaining := *events
		cfg.Observer = router.ObserverFunc(func(e router.Event) {
			if remaining <= 0 {
				return
			}
			remaining--
			id := uint64(0)
			if e.Flit != nil {
				id = e.Flit.PacketID
			}
			fmt.Printf("cycle %6d  %-6s pkt=%-6d in=%-3d out=%-3d vc=%d %s\n",
				e.Cycle, e.Kind, id, e.Input, e.Output, e.VC, e.Note)
		})
	}
	opts := testbench.Options{
		Router:        cfg,
		Pattern:       pat,
		Bursty:        *bursty,
		Load:          *load,
		PktLen:        *pkt,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Seed:          *seed,
		Check:         *chk,
		Injection:     injMode,
	}
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hrsim:", err)
			os.Exit(1)
		}
		opts.Trace, err = traffic.LoadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hrsim:", err)
			os.Exit(1)
		}
	}
	res, err := testbench.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrsim:", err)
		os.Exit(1)
	}
	fmt.Printf("arch=%s radix=%d vcs=%d pattern=%s load=%.3f pkt=%d\n",
		a, *radix, *vcs, pat.Name(), *load, *pkt)
	fmt.Printf("  avg latency      %.2f cycles (p50 %.1f, p99 %.1f)\n", res.AvgLatency, res.P50, res.P99)
	fmt.Printf("  throughput       %.4f of capacity\n", res.Throughput)
	fmt.Printf("  labeled packets  %d (99%% CI half-width %.2f%% of mean)\n", res.Packets, 100*res.RelErr99)
	fmt.Printf("  simulated cycles %d\n", res.Cycles)
	if *chk {
		fmt.Println("  invariants       ok (conservation, credits, ordering, VC ownership, progress)")
	}
	if res.Saturated {
		fmt.Println("  SATURATED: offered load exceeds sustainable throughput at this configuration")
	}
}
