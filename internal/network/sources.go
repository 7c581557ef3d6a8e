package network

import "highradix/internal/drive"

// SourceOpts parameterizes a Sources bank: the workload, whose Rate is
// Load / (SerCycles * PktLen), and the run seed each terminal derives
// a private stream from (termSeed), so draws are independent of
// terminal visit order. The pattern is read concurrently by shard
// workers.
type SourceOpts struct {
	Seed uint64
	drive.Workload
}

// Sources is the drive.Bank of the terminals one engine hosts. The
// serial run uses a single bank over all terminals; each shard worker
// owns the bank for its range of them, and the partitioned banks
// reproduce the serial bank's traffic exactly.
type Sources = drive.Bank

// NewSources builds the bank for terminals entering routers [lo, hi).
func NewSources(topo Topology, o SourceOpts, lo, hi int) *Sources {
	return newSources(topo, o, func(t int) bool {
		er, _ := topo.Entry(t)
		return er >= lo && er < hi
	})
}

// newSources builds the bank for the terminals owns selects.
func newSources(topo Topology, o SourceOpts, owns func(t int) bool) *Sources {
	return drive.NewBank(drive.BankConfig{
		Workload: o.Workload,
		Sources:  topo.Terminals(), VCs: topo.InjectVCs(), Ser: topo.SerCycles(),
		Owns: owns,
		Seed: func(t int) uint64 { return termSeed(o.Seed, t) },
		// Structured ids — terminal in the high word, per-terminal sequence
		// below — are unique and assigned without any shared counter, so id
		// assignment commutes across shards (and stays nonzero, preserving
		// the link-owner free sentinel).
		PacketID: func(t int, seq uint32) uint64 { return uint64(t+1)<<32 | uint64(seq) },
	})
}
