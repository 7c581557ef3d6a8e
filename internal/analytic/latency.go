// Package analytic implements the first-principles latency and cost
// models of the paper's Section 2, which motivate high-radix routers:
// the optimal-radix equation (Figure 2), the latency and cost versus
// radix curves (Figure 3), and the historical router-bandwidth scaling
// data of Figure 1.
package analytic

import "math"

// Technology describes a network design point: total router bandwidth,
// per-hop router delay, network size and packet length. These are the
// parameters of Equation (2),
//
//	T(k) = 2*tr*log_k(N) + 2*k*L/B,
//
// and of the aspect ratio A = B*tr*ln(N)/L that determines the
// latency-optimal radix via k*ln^2(k) = A (Equation 3). The paper's
// stated aspect ratios (554 for 2003, 2978 for 2010) are reproduced
// exactly when the natural logarithm is used, which pins down the
// paper's convention.
type Technology struct {
	// Name labels the design point ("2003", "2010", ...).
	Name string
	// BandwidthBps is B, total router bandwidth in bits/second.
	BandwidthBps float64
	// RouterDelay is tr in seconds.
	RouterDelay float64
	// Nodes is N, the network size.
	Nodes float64
	// PacketBits is L.
	PacketBits float64
}

// Paper design points (footnote 3 of the paper).
var (
	// Tech1991 is the J-Machine: 3.84 Gb/s, 62 ns, 1024 nodes, 128 b.
	Tech1991 = Technology{Name: "1991", BandwidthBps: 3.84e9, RouterDelay: 62e-9, Nodes: 1024, PacketBits: 128}
	// Tech1996 is the Cray T3E: 64 Gb/s, 40 ns, 2048 nodes, 128 b.
	Tech1996 = Technology{Name: "1996", BandwidthBps: 64e9, RouterDelay: 40e-9, Nodes: 2048, PacketBits: 128}
	// Tech2003 is the SGI Altix 3000: 0.4 Tb/s, 25 ns, 1024 nodes, 128 b.
	Tech2003 = Technology{Name: "2003", BandwidthBps: 0.4e12, RouterDelay: 25e-9, Nodes: 1024, PacketBits: 128}
	// Tech2010 is the paper's estimate: 20 Tb/s, 5 ns, 2048 nodes, 256 b.
	Tech2010 = Technology{Name: "2010", BandwidthBps: 20e12, RouterDelay: 5e-9, Nodes: 2048, PacketBits: 256}
)

// AspectRatio returns A = B*tr*ln(N)/L, the paper's "aspect ratio" of a
// router: high values favor many narrow ports ("tall, skinny"), low
// values few wide ports ("short, fat").
func (t Technology) AspectRatio() float64 {
	return t.BandwidthBps * t.RouterDelay * math.Log(t.Nodes) / t.PacketBits
}

// Latency returns T(k) in seconds for radix k under Equation (2): the
// sum of header latency over 2*log_k(N) hops and serialization latency
// on channels of bandwidth B/(2k).
func (t Technology) Latency(k float64) float64 {
	if k < 2 {
		return math.Inf(1)
	}
	hops := 2 * math.Log(t.Nodes) / math.Log(k)
	header := hops * t.RouterDelay
	serialization := 2 * k * t.PacketBits / t.BandwidthBps
	return header + serialization
}

// Cycles returns Equation (2)'s two terms in cycles for a radix-k
// router, as the network simulator charges them: the per-hop pipeline
// delay tr = round(5 + log2 k), and the serialization of one flit on a
// channel, ser = max(1, round(4k/64)), 4 cycles at radix 64 with
// channels narrowing as radix grows at constant router bandwidth. That
// convention holds for k >= 16 only: below it the channel carries a
// whole flit per cycle, not 0.25 (k = 4) or 0.5 (k = 8).
func Cycles(k int) (tr, ser int) {
	tr = int(math.Round(5 + math.Log2(float64(k))))
	ser = int(math.Max(1, math.Round(4*float64(k)/64)))
	return tr, ser
}

// OptimalRadix solves k*ln^2(k) = A for the latency-minimizing radix
// (Equation 3) by bisection. The returned value is continuous; round to
// taste.
func OptimalRadix(aspect float64) float64 {
	f := func(k float64) float64 {
		l := math.Log(k)
		return k * l * l
	}
	lo, hi := 2.0, 2.0
	for f(hi) < aspect {
		hi *= 2
		if hi > 1e12 {
			return hi
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if f(mid) < aspect {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// OptimalRadixFor is shorthand for OptimalRadix(t.AspectRatio()).
func (t Technology) OptimalRadixFor() float64 { return OptimalRadix(t.AspectRatio()) }

// Cost returns the relative network cost at radix k for this design
// point. Network cost is dominated by router pins and connectors, hence
// proportional to total router bandwidth: the number of channels times
// their bandwidth. For fixed network bisection bandwidth this is
// proportional to hop count times node count, so cost decreases
// monotonically with radix (Figure 3(b)). The unit is "channels" of the
// reference width (count of k-port channels normalized by bandwidth),
// reported by the paper in thousands of channels.
func (t Technology) Cost(k float64) float64 {
	if k < 2 {
		return math.Inf(1)
	}
	hops := 2 * math.Log(t.Nodes) / math.Log(k)
	return t.Nodes * hops
}
