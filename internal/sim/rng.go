// Package sim provides the small deterministic building blocks shared by
// every simulator in this repository: a splittable pseudo-random number
// generator, bounded FIFO queues, and the one timed queue every
// fixed-latency wire is built from (Calendar).
//
// All randomness in the repository flows through RNG so that every
// experiment is reproducible from a single seed.
package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** by Blackman & Vigna). It is not safe for concurrent use;
// each simulation owns its own instance, and independent streams are
// created with Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which
// guarantees a well-mixed nonzero state for any seed including zero.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator in place to NewRNG(seed)'s state, for
// banks of generators held by value.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

// Split derives an independent stream from the current state. The parent
// stream advances, so repeated Splits yield distinct children.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	hi, lo := bits.Mul64(r.Uint64(), uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// BernoulliThreshold returns the t for which Uint64()>>11 < t holds
// exactly when Float64() < p would: Float64 is m/2^53 for the 53-bit
// integer m = Uint64()>>11, both steps exact, so the comparison is
// m < p*2^53 — also exact — and, m being an integer, m < ceil(p*2^53).
func BernoulliThreshold(p float64) uint64 {
	switch {
	case !(p > 0): // NaN compares false, as it does in Bernoulli
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BernoulliAhead takes the stream's next Bernoulli draws in one go, for
// a caller that consumes one per cycle and only acts on a success: it
// draws against threshold (see BernoulliThreshold) until a draw succeeds
// or limit draws have failed, and returns how many failed first. The
// draws are the ones that many Bernoulli calls would have taken, with the
// generator's state held in registers across them.
func (r *RNG) BernoulliAhead(threshold uint64, limit int) (failed int, hit bool) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for failed < limit {
		m := rotl(s1*5, 7) * 9 >> 11
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if m < threshold {
			hit = true
			break
		}
		failed++
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return failed, hit
}
