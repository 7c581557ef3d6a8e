package experiments

import "highradix/internal/router"

// ablCreditBus quantifies the Section 5.2 claim that the shared
// credit-return bus costs almost nothing against an ideal switch that
// returns credits immediately: because each flit occupies the input row
// for several cycles, a crosspoint that loses bus arbitration has
// cycles to spare before the missing credit could matter.
var ablCreditBus = latencyFig{
	title: "Ablation (Section 5.2): shared credit-return bus vs ideal credit return",
	cases: []latencyCase{
		{name: "shared-bus", cfg: fullyBuffered},
		{name: "ideal-credits", cfg: router.Config{Arch: router.ArchBuffered, IdealCredit: true}},
	},
	note: "paper: simulations show minimal difference between the ideal scheme and the shared bus",
}

// ablSharedXpoint evaluates the Section 5.4 alternative: a single
// shared buffer per crosspoint with ACK/NACK retention. It saves a
// factor of v in crosspoint storage but loses throughput to NACKed
// speculative heads and to input-side blocking while ACKs are pending.
var ablSharedXpoint = latencyFig{
	title: "Ablation (Section 5.4): shared-buffer crosspoints (ACK/NACK) vs per-VC buffers",
	cases: []latencyCase{
		{name: "per-VC-buffers", cfg: fullyBuffered},
		{name: "shared-ACK/NACK", cfg: router.Config{Arch: router.ArchSharedXpoint}},
		{name: "baseline(no-buffers)", cfg: baselineCVA},
	},
	note: "shared buffers land between the unbuffered baseline and the fully buffered crossbar at 1/v of its crosspoint storage",
}

// ablSpecPolicy quantifies Section 4.4's warning that "bandwidth can be
// unnecessarily wasted if the re-bidding is not done carefully": the
// default rotating output-VC bid against a hash-spread bid that never
// adapts and the naive always-VC-0 bid.
var ablSpecPolicy = latencyFig{
	title: "Ablation (Section 4.4): speculative output-VC bid policy, baseline CVA",
	cases: []latencyCase{
		{name: "bid-rotate", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, SpecPolicy: router.SpecRotate}},
		{name: "bid-hash", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, SpecPolicy: router.SpecHash}},
		{name: "bid-fixed", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, SpecPolicy: router.SpecFixed}},
	},
	note: "rotating the bid after each failed speculation recovers the bandwidth the naive policies waste",
}

// ablAllocIters sweeps the iteration count of the centralized
// low-radix allocator. One iteration (the reference design) leaves the
// classic head-of-line matching loss; a few iterations recover most of
// it — affordable only because the allocator is centralized, which is
// why the paper's distributed high-radix designs must win the
// throughput back with buffering instead.
var ablAllocIters = latencyFig{
	title: "Ablation: allocation iterations of the centralized low-radix router (k=16)",
	cases: []latencyCase{
		{name: "iters=1", cfg: router.Config{Arch: router.ArchLowRadix, Radix: 16, AllocIters: 1}},
		{name: "iters=2", cfg: router.Config{Arch: router.ArchLowRadix, Radix: 16, AllocIters: 2}},
		{name: "iters=4", cfg: router.Config{Arch: router.ArchLowRadix, Radix: 16, AllocIters: 4}},
	},
}

// ablLocalGroup sweeps the local arbitration group size m of the
// distributed output arbiters (Section 4.1 fixes m=8 so each stage fits
// a clock cycle; this ablation shows throughput is insensitive to m,
// which is why the choice can be made on timing grounds alone).
var ablLocalGroup = latencyFig{
	title: "Ablation (Section 4.1): local arbitration group size m",
	cases: []latencyCase{
		{name: "m=4", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, LocalGroup: 4}},
		{name: "m=8", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, LocalGroup: 8}},
		{name: "m=16", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, LocalGroup: 16}},
		{name: "m=64", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA, LocalGroup: 64}},
	},
}
