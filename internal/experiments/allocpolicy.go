package experiments

import "highradix/internal/router"

// figAlloc is an extension beyond the paper's figures: a head-to-head
// latency-throughput comparison of the allocation-policy families the
// registry hosts, at the paper's radix-64 design point under uniform
// random traffic. The lines are the paper's baseline separable
// allocator with crosspoint speculation (CVA), the virtual-output-
// queued organization under the iterative iSLIP scheduler at one and
// three grant/accept iterations (the Tiny Tera organization — extra
// iterations refine the matching toward maximal), and dynamic
// virtual-channel allocation over the centralized separable allocator
// (the Onsori & Safaei buffer organization, sharing the low-radix
// allocator so its delta isolates the buffer sizing rule). Together
// with the saturation-throughput scalars this is the registry's
// flagship figure: one plot, four allocation policies, identical
// methodology.
var figAlloc = latencyFig{
	title: "Extension: allocation-policy families head to head at radix 64 (uniform random)",
	x:     "offered load (fraction of capacity)",
	y:     "avg packet latency (cycles)",
	cases: []latencyCase{
		{name: "baseline-cva", cfg: router.Config{Arch: router.ArchBaseline, Radix: 64}},
		{name: "voq-islip1", cfg: router.Config{Arch: router.ArchVOQ, Radix: 64}},
		{name: "voq-islip3", cfg: router.Config{Arch: router.ArchVOQ, Radix: 64, AllocIters: 3}},
		{name: "dynvc", cfg: router.Config{Arch: router.ArchDynVC, Radix: 64}},
	},
	note: "VOQ scheduling removes head-of-line blocking at the cost of k^2 queues; dynamic VC sizing trades static partitioning for pool sharing on the same allocator",
}
