// Package shard runs a network simulation on an explicit number of
// workers: the epoch runner of package network (network.RunSharded),
// whose results are byte-identical to the one-engine world's
// (network.RunSerial) at every worker count, under the API the
// benchmark and the black-box determinism tests were written against.
// network.Run takes its worker count from the CPU budget instead.
package shard

import "highradix/internal/network"

// Options parameterizes a sharded run: the serial options plus the
// worker count.
type Options struct {
	network.Options
	// Workers is the number of shards. 0 and 1 both mean one worker
	// (still running through the epoch machinery, which is how the
	// workers-1-equals-serial test earns its keep). Counts above the
	// router count leave the excess workers with empty shards.
	Workers int
}

// Partition splits routers [0, n) into p contiguous ranges whose sizes
// differ by at most one; when p > n the tail ranges are empty.
func Partition(n, p int) [][2]int { return network.Partition(n, p) }

// Run executes one network simulation across o.Workers shards and
// returns the byte-identical serial result.
func Run(o Options) (network.Result, error) {
	res, _, err := RunReport(o)
	return res, err
}

// RunReport is Run, also reporting where the workers' time went. Every
// way out of the run — its end, an error, a panic — stops the workers.
func RunReport(o Options) (network.Result, network.Report, error) {
	return network.RunSharded(o.Options, o.Workers)
}
