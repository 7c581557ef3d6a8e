package traffic

import "highradix/internal/sim"

// MarkovOnOff is Table 1's bursty injection: a two-state Markov process.
// In the ON state the source injects one packet per cycle; in the OFF
// state it is silent. The ON->OFF probability beta = 1/avgBurst gives an
// average burst length of avgBurst packets; the OFF->ON probability
// alpha is solved so the long-run rate matches the requested rate:
//
//	rate = alpha / (alpha + beta)  =>  alpha = rate*beta / (1 - rate)
//
// Rates at or above 1 packet/cycle pin the process ON.
type MarkovOnOff struct {
	alpha uint64 // OFF->ON probability as a sim.BernoulliThreshold
	beta  float64
	on    bool
	burst int
}

// markovRates solves the two-state chain's transition probabilities for
// a long-run packet rate and average burst length; shared by the
// per-cycle and gap-sampled forms so both walk the same chain.
func markovRates(rate, avgBurst float64) (alpha, beta float64) {
	if avgBurst < 1 {
		panic("traffic: average burst length must be >= 1")
	}
	beta = 1.0 / avgBurst
	if rate >= 1 {
		return 1, 0
	}
	alpha = rate * beta / (1 - rate)
	if alpha > 1 {
		alpha = 1
	}
	return alpha, beta
}

// BurstLen is Table 1's average burst length in packets: the avgBurst
// every bursty run in this repository injects with.
const BurstLen = 8

// NewMarkovOnOff returns a bursty process with the given long-run packet
// rate per cycle and average burst length in packets (Table 1's is
// BurstLen).
func NewMarkovOnOff(rate, avgBurst float64) *MarkovOnOff {
	alpha, beta := markovRates(rate, avgBurst)
	return &MarkovOnOff{alpha: sim.BernoulliThreshold(alpha), beta: beta}
}

// InjectAhead walks the chain through its next cycles in one go, until
// one injects or limit of them have not, and returns how many did not
// first. Each cycle evaluates the state transition before the injection
// decision, so a fresh ON state injects immediately: an ON cycle draws
// the ON->OFF transition and injects unless it fires; the OFF cycles
// after it are one run of OFF->ON draws. The draws are exactly those of
// walking the chain a cycle at a time (export_test.go keeps that walk as
// the tests' reference).
func (m *MarkovOnOff) InjectAhead(rng *sim.RNG, limit int) (idle int, hit bool) {
	if limit <= 0 {
		return 0, false
	}
	if m.on {
		if !rng.Bernoulli(m.beta) {
			m.burst++
			return 0, true
		}
		m.on, m.burst = false, 0
		idle = 1
	}
	off, hit := rng.BernoulliAhead(m.alpha, limit-idle)
	if hit {
		m.on, m.burst = true, 1
	}
	return idle + off, hit
}

// InBurst reports whether the process is currently in the ON state with
// at least one packet already injected this burst. Sources use it to
// keep a common destination for all packets of one burst, which is what
// makes bursty traffic stress switch buffering.
func (m *MarkovOnOff) InBurst() bool { return m.on && m.burst > 1 }

// BurstPattern wraps a base pattern so that all packets of one burst
// from a source share a destination, re-drawn at the start of each
// burst. For non-bursty processes it behaves exactly like the base
// pattern. The paper's Table 1 describes bursty traffic as "uniform
// traffic pattern ... with a bursty injection"; holding the destination
// for a burst is the standard switch-evaluation reading (it is what
// exercises intermediate buffering, the effect Figure 18(c) reports).
type BurstPattern struct {
	Base  Pattern
	procs []Burster
	dests []int
}

// Burster is the slice of a bursty process BurstPattern needs: whether
// the current injection continues a burst whose destination must be
// held. Implemented by MarkovOnOff and MarkovOnOffGap.
type Burster interface {
	InBurst() bool
}

// NewBurstPattern couples a base pattern with the per-source Markov
// processes so destinations persist per burst.
func NewBurstPattern(base Pattern, procs []Burster) *BurstPattern {
	dests := make([]int, len(procs))
	for i := range dests {
		dests[i] = -1
	}
	return &BurstPattern{Base: base, procs: procs, dests: dests}
}

// Dest implements Pattern.
func (b *BurstPattern) Dest(src int, rng *sim.RNG) int {
	if b.procs[src].InBurst() && b.dests[src] >= 0 {
		return b.dests[src]
	}
	d := b.Base.Dest(src, rng)
	b.dests[src] = d
	return d
}

// Name implements Pattern.
func (b *BurstPattern) Name() string { return "bursty-" + b.Base.Name() }
