package main

import (
	"math"
	"time"
)

// The box a run is measured on is a few cores of a shared host. What
// its other tenants do changes how fast this process computes, by up to
// a factor of 1.8 for seconds to minutes at a time, and nothing inside
// one run of ten or twenty seconds averages that out (README, "Noise on
// this box").
// So every timed part of a pass is taken between two probes of the
// host's speed — two fixed pieces of work, timed — and its time is
// divided by how much slower than the reference the probes around it
// ran. Reported seconds are therefore seconds at the reference speed,
// not of this minute's neighbours; the raw ones are printed beside them.
//
// The two pieces stress what the simulator stresses: instruction
// throughput (spin) and the throughput of independent loads that miss
// the core's own cache (gather). The factor is their geometric mean
// with weights 3/4 and 1/4. Spin alone follows the single-router
// workloads; the network and service workloads, which wait on memory,
// follow a mean with gather in it better; more than a quarter of gather
// overcorrects the router workloads when the host is quiet, which
// gather feels far more than they do (README). The probes depend on
// nothing of the program under test: spin touches no memory, and the
// table gather reads is read into the caches before it is timed, so
// what the preceding operation left there does not show.

const (
	spinSteps   = 1_000_000
	gatherSteps = 400_000
	// What each probe takes on this box on an ordinary afternoon (2.1 GHz
	// Xeon guest, 2 MB L2, go1.24; spin's is also its quiet time, gather
	// runs a third faster on a quiet host): the speed all times are
	// converted to.
	// Another machine's numbers differ from this one's by a constant
	// factor; comparing two commits on one machine is what the benchmark
	// is for.
	spinRefNs   = 2.88e6
	gatherRefNs = 2.5e6

	// tableLen × 4 bytes = 4 MB: twice the core's own cache, a small
	// constant inside peak_rss_mb.
	tableLen = 1 << 20
)

// table is what gather reads, made by the first probe (a -setup-only
// child, which setup_s times, never pays for it); its contents do not
// matter, only that every page is backed by memory of its own. Probes
// run on one goroutine at a time: the one that runs the passes.
var table []uint32

// probeSink keeps the probes' results live.
var probeSink uint64

// spin is four independent xorshift chains, no memory: bound by
// instruction throughput, which is what a busy sibling hyperthread or a
// lowered clock takes away.
func spin() time.Duration {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for s := 0; s < spinSteps; s++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
	}
	took := time.Since(t0)
	probeSink += a ^ b ^ c ^ d
	return took
}

// warmTable reads one word of every cache line of the table, untimed.
func warmTable() {
	if table == nil {
		table = make([]uint32, tableLen)
		for i := range table { // written, so that every page is its own
			table[i] = uint32(i)
		}
	}
	var acc uint32
	for i := 0; i < tableLen; i += 16 {
		acc += table[i]
	}
	probeSink += uint64(acc)
}

// gather reads at computed random indices: loads that do not wait for
// each other.
func gather() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	var acc uint32
	for s := 0; s < gatherSteps; s++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += table[x&(tableLen-1)]
	}
	took := time.Since(t0)
	probeSink += uint64(acc)
	return took
}

// hostSlowdown probes the host's speed and returns how many times
// slower than the reference it is now.
func hostSlowdown() float64 {
	s := float64(spin().Nanoseconds()) / spinRefNs
	warmTable()
	g := float64(gather().Nanoseconds()) / gatherRefNs
	return math.Pow(s, 0.75) * math.Pow(g, 0.25)
}
