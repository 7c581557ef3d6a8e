// Command hrtrace runs a short simulation with the event observer
// attached and prints per-packet timelines: when each flit was
// accepted, granted through each stage, NACKed and ejected. It is the
// debugging view of the router models — e.g. watching a speculative
// head flit collect NACKs while the output VC it bids for is busy.
//
// Example:
//
//	hrtrace -arch baseline -va CVA -load 0.6 -packets 5
//	hrtrace -arch hierarchical -pattern worstcase -load 0.9 -packets 3
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"highradix/internal/router"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

type record struct {
	events []router.Event
}

func main() {
	var (
		arch    = flag.String("arch", "baseline", strings.Join(router.ArchNames(), "|"))
		radix   = flag.Int("radix", 64, "router radix k")
		vcs     = flag.Int("vcs", 4, "virtual channels")
		subsize = flag.Int("subsize", 8, "hierarchical subswitch size")
		va      = flag.String("va", "CVA", "CVA|OVA")
		load    = flag.Float64("load", 0.6, "offered load")
		pkt     = flag.Int("pkt", 1, "packet length in flits")
		pattern = flag.String("pattern", "uniform", "traffic pattern")
		packets = flag.Int("packets", 5, "number of packet timelines to print")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	a, err := router.ArchByName(*arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrtrace:", err)
		os.Exit(2)
	}
	vaScheme, err := router.VAByName(*va)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrtrace:", err)
		os.Exit(2)
	}
	pat, err := traffic.ByName(*pattern, *radix, *subsize, 8)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrtrace:", err)
		os.Exit(2)
	}

	// Collect events for the first N distinct packets observed after
	// warm-up (packet IDs grow monotonically, so a simple floor works).
	byPacket := map[uint64]*record{}
	var tracked []uint64
	cfg := router.Config{
		Arch: a, Radix: *radix, VCs: *vcs, SubSize: *subsize, VA: vaScheme,
		Observer: router.ObserverFunc(func(e router.Event) {
			if e.Flit == nil {
				// Request-level events (baseline NACKs) carry no flit;
				// attribute them to the input's tracked packets later by
				// printing them under a synthetic id 0 only if verbose —
				// for timeline purposes we only track flit events.
				return
			}
			id := e.Flit.PacketID
			r, ok := byPacket[id]
			if !ok {
				if len(tracked) >= *packets || e.Kind != router.EvAccept || !e.Flit.Head {
					return
				}
				r = &record{}
				byPacket[id] = r
				tracked = append(tracked, id)
			}
			r.events = append(r.events, e)
		}),
	}
	res, err := testbench.Run(testbench.Options{
		Router:        cfg,
		Pattern:       pat,
		Load:          *load,
		PktLen:        *pkt,
		WarmupCycles:  200,
		MeasureCycles: 2000,
		DrainCycles:   8000,
		Seed:          *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrtrace:", err)
		os.Exit(1)
	}

	sort.Slice(tracked, func(i, j int) bool { return tracked[i] < tracked[j] })
	for _, id := range tracked {
		r := byPacket[id]
		if len(r.events) == 0 {
			continue
		}
		first := r.events[0]
		fmt.Printf("packet %d: %d -> %d, %d flits\n", id, first.Flit.Src, first.Flit.Dst, first.Flit.PacketLen)
		start := first.Cycle
		for _, e := range r.events {
			note := e.Note
			if note != "" {
				note = " @" + note
			}
			fmt.Printf("  +%4d  %-6s flit %d/%d  in=%d out=%d vc=%d%s\n",
				e.Cycle-start, e.Kind, e.Flit.Seq+1, e.Flit.PacketLen, e.Input, e.Output, e.VC, note)
		}
		fmt.Println()
	}
	fmt.Printf("run summary: avg latency %.1f cycles, throughput %.3f, saturated=%v\n",
		res.AvgLatency, res.Throughput, res.Saturated)
}
