package network

import "math/bits"

// Link identifies the far end of a router port: either input port
// `Port` of router `Router`, or — when Router is -1 — the terminal
// `Terminal`.
type Link struct {
	Router   int
	Port     int
	Terminal int
}

// Topology describes one network family: its wiring, delay model, and
// routing function. The engine (Network) is topology-agnostic and
// drives everything through this interface.
//
// Implementations must be immutable after construction: NextHop and the
// wiring queries are called concurrently from shard workers, and any
// random choice must come from the supplied key (never internal state)
// so that routing is independent of evaluation order — the property
// that makes sharded runs byte-identical to serial ones.
type Topology interface {
	// Name is the family name ("clos", "ring", "torus").
	Name() string
	// Routers is the number of routers, flat-indexed [0, Routers()).
	Routers() int
	// Ports is the number of ports per router (input and output sides
	// are symmetric; port 0 may be a terminal port in direct networks).
	Ports() int
	// VCs is the number of virtual channels per input port.
	VCs() int
	// Terminals is the number of injection/ejection endpoints.
	Terminals() int
	// BufDepth is the per-(port, VC) input buffer depth in flits.
	BufDepth() int
	// SerCycles is the channel serialization time of one flit.
	SerCycles() int
	// HopDelay is the per-hop pipeline latency; a granted flit lands in
	// the downstream buffer HopDelay+1 cycles later.
	HopDelay() int
	// InjectVCs bounds the VCs a terminal may start a packet on:
	// classes [0, InjectVCs). Dateline schemes reserve the upper
	// classes for packets that crossed the dateline.
	InjectVCs() int
	// Diameter is the most routers any route crosses: the largest hop
	// count a delivered flit can carry.
	Diameter() int
	// Link returns where output port p of router r leads. Link and
	// Entry state the whole wiring: every router input port must be the
	// far end of exactly one of them, and the engine inverts them to
	// route credits upstream.
	Link(r, p int) Link
	// Entry returns the router input port terminal t injects into.
	Entry(t int) (router, port int)
	// NextHop picks the output port and downstream VC for a head flit
	// that arrived at router r through input port inPort on channel vc,
	// destined for terminal dst. key is a per-(packet, router) hash
	// driving any oblivious random choice.
	NextHop(r, inPort, dst, vc int, key uint64) (outPort, outVC int)
}

// creditDelay is the upstream credit return latency in cycles, the same
// in every topology.
const creditDelay = 2

// Lookahead returns the conservative-synchronization window of a
// topology: the minimum latency of any cross-router effect. A granted
// flit lands HopDelay+1 cycles later and a credit returns after
// creditDelay, so no event produced during an epoch of this length can
// take effect before the next epoch begins — which is exactly why the
// shard runner's once-per-epoch barrier misses nothing (DESIGN.md,
// "Sharded synchronization").
func Lookahead(t Topology) int {
	return min(t.HopDelay()+1, creditDelay)
}

// mix64 is the SplitMix64 finalizer: a cheap invertible mixer whose
// output passes PractRand/BigCrush when fed a counter, which is more
// than routing-choice hashing needs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// routeKey hashes (seed, packet, router) into the key NextHop draws its
// oblivious choices from. Keying by packet and router — never by a
// shared stream — makes every routing decision a pure function of the
// run's seed, so the decision is identical no matter which worker
// evaluates it or in what order.
func routeKey(seed, pktID uint64, router int) uint64 {
	return mix64(seed ^ mix64(pktID*0x9e3779b97f4a7c15+uint64(router)))
}

// keyUniform maps a hash to [0, n) by fixed-point multiplication
// (Lemire's reduction without the rejection step; the bias at n ≪ 2^64
// is far below anything a latency statistic can resolve).
func keyUniform(key uint64, n int) int {
	hi, _ := bits.Mul64(key, uint64(n))
	return int(hi)
}

// termSeed derives terminal t's private generator stream from the run
// seed. Per-terminal streams (rather than one shared source RNG) keep
// generation draws independent of terminal visit order, which is what
// lets shards generate for disjoint terminal sets and still reproduce
// the serial run bit-for-bit.
func termSeed(seed uint64, t int) uint64 {
	return mix64(seed ^ 0x6c62272e07bb0142 ^ mix64(uint64(t)*0x9e3779b97f4a7c15+0x7f4a7c15))
}
