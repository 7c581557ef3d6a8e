package traffic

import (
	"fmt"
	"math"

	"highradix/internal/sim"
)

// InjMode selects between the two synthetic-source implementations a
// driver can run: the per-cycle processes (one Bernoulli draw per source
// per cycle — sim.RNG.BernoulliAhead, or the MarkovOnOff chain of
// process.go — the historical default every golden file was recorded
// under; drive.Bank takes the draws ahead of time, so these runs jump to
// the next injection too) and the gap-sampled processes of this file
// (one draw per *event*, so the draws as well as the simulated cycles
// scale with the packets, not with time).
type InjMode int

const (
	// InjPerCycle draws the injection decision of every cycle.
	InjPerCycle InjMode = iota
	// InjGap samples the next injection cycle directly (GapProcess).
	// This is a documented fast mode: the injection-cycle sets it
	// produces follow exactly the same distribution as InjPerCycle (see
	// the equivalence notes on BernoulliGap and MarkovOnOffGap), but
	// because it consumes one uniform per event rather than one per
	// cycle, the RNG stream disciplines necessarily differ and outputs
	// are distribution-equivalent, not byte-identical, to InjPerCycle.
	// Gap runs are pinned by their own goldens, chi-square distribution
	// tests and dense-vs-event-driven twin runs.
	InjGap
)

// InjModeByName parses a -inj flag value.
func InjModeByName(s string) (InjMode, error) {
	switch s {
	case "", "percycle":
		return InjPerCycle, nil
	case "gap":
		return InjGap, nil
	}
	return 0, fmt.Errorf("traffic: unknown injection mode %q (want percycle or gap)", s)
}

// String returns the flag spelling of the mode.
func (m InjMode) String() string {
	if m == InjGap {
		return "gap"
	}
	return "percycle"
}

// GapProcess is the event-driven face of an injection process. Instead
// of answering "inject this cycle?" once per cycle, it returns the next
// cycle at which the source injects, so a scheduler can sleep the
// source until then. Calls must be made with nondecreasing from; the
// driver calls NextInject(c+1) immediately after consuming an injection
// at cycle c, so the process's internal state (burst position, ON/OFF
// phase) always describes the injection most recently returned.
type GapProcess interface {
	// NextInject returns the first cycle >= from at which the source
	// injects a packet, or sim.NoWake when it never injects again.
	NextInject(from int64, rng *sim.RNG) int64
}

// geometric samples the geometric distribution on {0, 1, 2, ...} with
// success probability p — the number of independent Bernoulli(p)
// failures before the first success — by inverting its CDF with a
// single uniform draw: G = floor(ln(1-u) / ln(1-p)). lnq caches
// ln(1-p). p >= 1 always returns 0. Draws so large they would overflow
// cycle arithmetic are clamped to sim.NoWake's scale by the callers.
func geometric(rng *sim.RNG, p, lnq float64) float64 {
	if p >= 1 {
		return 0
	}
	// u in [0,1) keeps 1-u in (0,1], so Log1p(-u) is finite and <= 0.
	return math.Floor(math.Log1p(-rng.Float64()) / lnq)
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

// NextInject implements GapProcess.
func (b *BernoulliGap) NextInject(from int64, rng *sim.RNG) int64 {
	if b.rate <= 0 {
		return sim.NoWake
	}
	g := geometric(rng, b.rate, b.lnq)
	if g >= float64(sim.NoWake-from) {
		return sim.NoWake
	}
	return from + int64(g)
}

// MarkovOnOffGap is the gap-sampled form of MarkovOnOff: it samples the
// OFF dwell and the burst length directly instead of walking the
// two-state chain cycle by cycle.
//
// Equivalence to the per-cycle chain (InjectAhead in process.go, which
// evaluates the state transition before the injection decision):
//
//   - Burst length. From an ON cycle, the chain stays ON with
//     probability 1-beta each subsequent cycle, so a burst of length L
//     has P(L=l) = (1-beta)^(l-1) beta: L = 1 + Geometric(beta).
//   - Inter-burst gap. The cycle after a burst's last packet always
//     goes OFF silently (the chain's else-if means the OFF->ON draw is
//     not evaluated in the cycle the ON->OFF draw succeeds), and each
//     cycle after that turns ON — and injects — with probability
//     alpha. The silent stretch is therefore 1 + Geometric(alpha)
//     cycles.
//   - Start. The process starts OFF with the OFF->ON draw evaluated
//     from cycle `from` itself, so the first injection lands at
//     from + Geometric(alpha).
//
// Rates at or above 1 packet/cycle pin the process ON, like the
// per-cycle form. As with BernoulliGap, the sampled arrival sets match
// the chain's distribution exactly but consume fewer uniforms, so a
// fixed seed produces different (equally distributed) arrivals.
type MarkovOnOffGap struct {
	alpha, beta float64
	lnqA, lnqB  float64
	burstLeft   int64 // injections remaining in the current burst
	burst       int64 // packets injected so far in the current burst
	started     bool
}

// NewMarkovOnOffGap returns a gap-sampled bursty source with the given
// long-run packet rate per cycle and average burst length in packets.
func NewMarkovOnOffGap(rate, avgBurst float64) *MarkovOnOffGap {
	alpha, beta := markovRates(rate, avgBurst)
	return &MarkovOnOffGap{
		alpha: alpha, beta: beta,
		lnqA: math.Log1p(-alpha), lnqB: math.Log1p(-beta),
	}
}

// NextInject implements GapProcess.
func (m *MarkovOnOffGap) NextInject(from int64, rng *sim.RNG) int64 {
	if m.alpha <= 0 {
		return sim.NoWake
	}
	if m.burstLeft > 0 {
		// Mid-burst: the chain injects every consecutive cycle while ON.
		m.burstLeft--
		m.burst++
		return from
	}
	// Between bursts (or at the start): sample the silent stretch, then
	// the length of the burst that follows.
	gap := geometric(rng, m.alpha, m.lnqA)
	if !m.started {
		m.started = true
	} else {
		gap++ // the cycle the chain turns OFF is always silent
	}
	if m.beta <= 0 {
		// Pinned ON (rate >= 1): one infinite burst.
		m.burstLeft = math.MaxInt64
	} else {
		m.burstLeft = int64(geometric(rng, m.beta, m.lnqB))
	}
	m.burst = 1
	if gap >= float64(sim.NoWake-from) {
		return sim.NoWake
	}
	return from + int64(gap)
}

// InBurst implements Burster: it reports whether the injection most
// recently returned by NextInject was a continuation packet of a burst
// (not the first), which is when BurstPattern holds the destination.
func (m *MarkovOnOffGap) InBurst() bool { return m.burst > 1 }
