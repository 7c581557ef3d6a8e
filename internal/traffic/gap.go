package traffic

import (
	"math"

	"highradix/internal/sim"
)

// InjMode selects between the two synthetic-source implementations a
// Bernoulli bank can run: the paper's per-cycle process (one Bernoulli
// draw per source per cycle, sim.RNG.BernoulliAhead, which drive.Bank
// takes ahead of time, so these runs jump to the next injection too),
// under which every figure golden was recorded, and BernoulliGap (one
// draw per packet). Gap sampling is a library mode, not a user one: no
// command sets it, Markov ON/OFF sources have no gap form, and bench/'s
// router_lowload rows are what run it.
type InjMode int

const (
	// InjPerCycle draws the injection decision of every cycle.
	InjPerCycle InjMode = iota
	// InjGap samples each source's next injection cycle directly
	// (BernoulliGap). The injection-cycle sets it produces follow the
	// same distribution as InjPerCycle, but it consumes one uniform per
	// packet rather than one per cycle, so its outputs are
	// distribution-equivalent, not byte-identical, to InjPerCycle. Gap
	// runs are pinned by their own digests, chi-square tests and
	// dense-vs-event-driven twin runs.
	InjGap
)

// String names the mode in test and benchmark row names.
func (m InjMode) String() string {
	if m == InjGap {
		return "gap"
	}
	return "percycle"
}

// BernoulliGap is the gap-sampled form of Bernoulli: instead of one
// Bernoulli(Rate) draw per cycle, it samples the inter-arrival gap
// directly.
//
// Equivalence: a Bernoulli process injects at cycle t iff an
// independent uniform u_t < p. Given the last injection at cycle c (or
// a start at cycle from), the next injection is the first success in
// the i.i.d. trial sequence at from, from+1, ..., so the gap
// (failure count) is geometrically distributed on {0,1,2,...} with
// P(G=g) = (1-p)^g p. Sampling G by CDF inversion therefore yields
// injection-cycle sets with exactly the per-cycle process's
// distribution — same marginal rate, same independent geometric gaps —
// while consuming one uniform per injection instead of one per cycle.
// The draw *count* differs, so a fixed seed produces different (equally
// distributed) arrival sets than Bernoulli; see InjGap.
type BernoulliGap struct {
	rate float64
	lnq  float64 // ln(1 - rate)
}

// NewBernoulliGap returns a gap-sampled Bernoulli source with the given
// packet rate per cycle.
func NewBernoulliGap(rate float64) *BernoulliGap {
	return &BernoulliGap{rate: rate, lnq: math.Log1p(-rate)}
}

// NextInject returns the first cycle >= from at which the source
// injects a packet, or sim.NoWake when it never injects again: one
// geometric gap, G = floor(ln(1-u) / ln(1-p)) by CDF inversion of a
// single uniform u. The caller asks again from the cycle after each
// injection. Gaps so large they would overflow cycle arithmetic are
// sim.NoWake.
func (b *BernoulliGap) NextInject(from int64, rng *sim.RNG) int64 {
	switch {
	case b.rate <= 0:
		return sim.NoWake
	case b.rate >= 1:
		return from
	}
	// u in [0,1) keeps 1-u in (0,1], so Log1p(-u) is finite and <= 0.
	g := math.Floor(math.Log1p(-rng.Float64()) / b.lnq)
	if g >= float64(sim.NoWake-from) {
		return sim.NoWake
	}
	return from + int64(g)
}
