package experiments

import (
	"strconv"

	"highradix/internal/router"
	"highradix/internal/stats"
	"highradix/internal/traffic"
)

// The router configurations and the Table 1 patterns the figures share.
// Patterns are immutable, so every run may share one.
var (
	lowRadix16    = router.Config{Arch: router.ArchLowRadix, Radix: 16}
	baselineCVA   = router.Config{Arch: router.ArchBaseline, VA: router.CVA}
	fullyBuffered = router.Config{Arch: router.ArchBuffered}
	hierP8        = router.Config{Arch: router.ArchHierarchical, SubSize: 8}

	diagonal  = traffic.NewDiagonal(64)
	hotspot   = traffic.NewHotspot(64, 8)
	worstCase = traffic.NewWorstCaseHierarchical(64, 8)
)

// fig9 reproduces Figure 9: latency versus offered load of the baseline
// high-radix router (k=64, v=4, distributed allocation, speculative VC
// allocation with CVA and OVA) against the low-radix (k=16) router with
// centralized single-cycle allocation. Uniform random traffic,
// single-flit packets.
var fig9 = latencyFig{
	title: "Figure 9: latency vs offered load, baseline architecture",
	cases: []latencyCase{
		{name: "low-radix(k=16)", cfg: lowRadix16},
		{name: "high-radix CVA", cfg: baselineCVA},
		{name: "high-radix OVA", cfg: router.Config{Arch: router.ArchBaseline, VA: router.OVA}},
	},
	note: "paper: low-radix ~60%; high-radix ~50% with CVA (12% lower), ~45% with OVA",
}

// fig11 reproduces Figure 11: the value of prioritizing nonspeculative
// requests with a dual switch arbiter, for 1 VC (a) and 4 VCs (b),
// using 10-flit packets and CVA (with single-flit packets every request
// is speculative, so prioritization has no effect).
var fig11 = latencyFig{
	title: "Figure 11: one vs two (prioritized) switch arbiters, 10-flit packets, CVA",
	cases: []latencyCase{
		{name: "1VC-one-arbiter", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, VCs: 1}, pktLen: 10},
		{name: "1VC-two-arbiters", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, VCs: 1, Prioritized: true}, pktLen: 10},
		{name: "4VC-one-arbiter", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, VCs: 4}, pktLen: 10},
		{name: "4VC-two-arbiters", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, VCs: 4, Prioritized: true}, pktLen: 10},
	},
	note: "paper: prioritization buys ~10% throughput with 1 VC and little with 4 VCs",
}

// fig13 reproduces Figure 13: the fully buffered crossbar against the
// baseline (CVA) and the low-radix reference on uniform random traffic.
var fig13 = latencyFig{
	title: "Figure 13: fully buffered crossbar vs baseline vs low-radix",
	cases: []latencyCase{
		{name: "low-radix(k=16)", cfg: lowRadix16},
		{name: "baseline", cfg: baselineCVA},
		{name: "fully-buffered", cfg: fullyBuffered},
	},
	note: "paper: crosspoint buffers remove head-of-line blocking; saturation approaches 100% of capacity",
}

// fig14 reproduces Figure 14: the effect of crosspoint buffer size on
// the fully buffered crossbar for (a) single-flit and (b) 10-flit
// packets. The paper sweeps 1-16 flits for short packets and 1-64 for
// long ones.
var fig14 = latencyFig{
	title: "Figure 14: crosspoint buffer size, fully buffered crossbar",
	cases: []latencyCase{
		{name: "1flit-1buf", cfg: router.Config{Arch: router.ArchBuffered, XpointBufDepth: 1}, pktLen: 1},
		{name: "1flit-4buf", cfg: router.Config{Arch: router.ArchBuffered, XpointBufDepth: 4}, pktLen: 1},
		{name: "1flit-16buf", cfg: router.Config{Arch: router.ArchBuffered, XpointBufDepth: 16}, pktLen: 1},
		{name: "10flit-1buf", cfg: router.Config{Arch: router.ArchBuffered, XpointBufDepth: 1}, pktLen: 10},
		{name: "10flit-4buf", cfg: router.Config{Arch: router.ArchBuffered, XpointBufDepth: 4}, pktLen: 10},
		{name: "10flit-16buf", cfg: router.Config{Arch: router.ArchBuffered, XpointBufDepth: 16}, pktLen: 10},
		{name: "10flit-64buf", cfg: router.Config{Arch: router.ArchBuffered, XpointBufDepth: 64}, pktLen: 10},
	},
	note: "paper: 4-flit buffers suffice for short packets; long packets need larger buffers to clear input-buffer HoL blocking",
}

// fig17a reproduces Figure 17(a): the hierarchical crossbar under
// uniform random traffic for subswitch sizes 4..32 against the baseline
// and the fully buffered crossbar.
var fig17a = latencyFig{
	title: "Figure 17(a): hierarchical crossbar, uniform random traffic",
	cases: hierCases(nil),
}

// fig17b reproduces Figure 17(b): the same comparison under the
// worst-case traffic pattern that concentrates all traffic of each
// input row group onto a single column of subswitches. The pattern is
// fixed at 8-input groups (the paper's p=8 focus), which makes the
// p = 8, 16 and 32 routers structurally equivalent under it, so their
// rows are identical; only p = 4 differs. Each p's own worst case
// (hrsim -pattern worstcase -subsize p -load 1, seed 1) gives 0.872,
// 0.850, 0.838 and 0.835 for p = 4, 8, 16 and 32.
var fig17b = latencyFig{
	title: "Figure 17(b): hierarchical crossbar, worst-case traffic (p=8 groups)",
	cases: hierCases(worstCase),
}

// hierCases are the lines of Figure 17(a) and (b) under pattern.
func hierCases(pattern traffic.Pattern) []latencyCase {
	return []latencyCase{
		{name: "baseline", cfg: baselineCVA, pattern: pattern},
		{name: "subswitch-32", cfg: router.Config{Arch: router.ArchHierarchical, SubSize: 32}, pattern: pattern},
		{name: "subswitch-16", cfg: router.Config{Arch: router.ArchHierarchical, SubSize: 16}, pattern: pattern},
		{name: "subswitch-8", cfg: hierP8, pattern: pattern},
		{name: "subswitch-4", cfg: router.Config{Arch: router.ArchHierarchical, SubSize: 4}, pattern: pattern},
		{name: "fully-buffered", cfg: fullyBuffered, pattern: pattern},
	}
}

// Each subswitch input and output buffer of Figure 17(c)'s hierarchical
// crossbar, sized by XpointBufDepth as the crosspoint buffers are,
// stands for p/2 crosspoint buffers of the flat crossbar.
var (
	xpDepth   = router.Config{}.WithDefaults().XpointBufDepth
	hierDepth = xpDepth * 8 / 2
)

// fig17c reproduces Figure 17(c): 10-flit packets with the total buffer
// storage held equal — the hierarchical crossbar (p=8) gets
// p/2 * 4 = 16-entry buffers to match the fully buffered crossbar's
// 4-entry crosspoint buffers.
var fig17c = latencyFig{
	title: "Figure 17(c): long packets at equal total buffer storage",
	cases: []latencyCase{
		{name: "fully-buffered(" + strconv.Itoa(xpDepth) + "/xp)", cfg: fullyBuffered, pktLen: 10},
		{name: "hierarchical-p8(" + strconv.Itoa(hierDepth) + "/buf)",
			cfg: router.Config{Arch: router.ArchHierarchical, SubSize: 8, XpointBufDepth: hierDepth}, pktLen: 10},
	},
	scalars: []stats.Scalar{{Name: "hier buffer entries for equal storage", Value: float64(hierDepth), Unit: "flits"}},
	note:    "paper: at equal storage the hierarchical crossbar beats the fully buffered crossbar on long packets",
}

// fig18 reproduces Figure 18: nonuniform traffic (Table 1) on the
// baseline, fully buffered and hierarchical (p=8) architectures:
// (a) diagonal, (b) hotspot with h=8 oversubscribed outputs, (c) bursty
// Markov ON/OFF with average burst length 8.
var fig18 = latencyFig{
	title: "Figure 18: nonuniform traffic (diagonal, hotspot, bursty)",
	cases: []latencyCase{
		{name: "diag/baseline", cfg: baselineCVA, pattern: diagonal},
		{name: "diag/hierarchical-p8", cfg: hierP8, pattern: diagonal},
		{name: "diag/fully-buffered", cfg: fullyBuffered, pattern: diagonal},
		{name: "hot/baseline", cfg: baselineCVA, pattern: hotspot},
		{name: "hot/hierarchical-p8", cfg: hierP8, pattern: hotspot},
		{name: "hot/fully-buffered", cfg: fullyBuffered, pattern: hotspot},
		{name: "burst/baseline", cfg: baselineCVA, bursty: true},
		{name: "burst/hierarchical-p8", cfg: hierP8, bursty: true},
		{name: "burst/fully-buffered", cfg: fullyBuffered, bursty: true},
	},
	note: "paper: diagonal, hierarchical exceeds baseline by ~10%; hotspot limits all to <40%; bursty, buffered architectures reach ~100% vs baseline ~50%",
}

// table1 measures saturation throughput of every architecture on every
// Table 1 traffic pattern plus uniform random — a compact summary that
// subsumes the throughput claims scattered through the paper's text.
var table1 = satGrid{
	title: "Table 1 summary: saturation throughput by architecture and pattern",
	x:     "pattern#",
	rows: []latencyCase{
		{name: "baseline", cfg: baselineCVA},
		{name: "buffered", cfg: fullyBuffered},
		{name: "sharedxp", cfg: router.Config{Arch: router.ArchSharedXpoint}},
		{name: "hier-p8", cfg: hierP8},
	},
	cols: []latencyCase{
		{name: "uniform"},
		{name: "diagonal", pattern: diagonal},
		{name: "hotspot", pattern: hotspot},
		{name: "bursty", bursty: true},
		{name: "worstcase", pattern: worstCase},
	},
	xs:    []float64{0, 1, 2, 3, 4},
	notes: []string{"pattern 0 = uniform", "pattern 1 = diagonal", "pattern 2 = hotspot", "pattern 3 = bursty", "pattern 4 = worstcase"},
}
