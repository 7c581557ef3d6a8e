// Package stats implements the measurement machinery described in the
// paper's Section 4.3: simulations are warmed up without measurement,
// then a sample of injected packets is labeled during a measurement
// interval, the run continues until every labeled packet is delivered,
// and the sample mean is reported with a confidence interval so runs can
// be sized for "accurate to within 3% with 99% confidence".
package stats

import (
	"math"
	"sort"
)

// Sample accumulates scalar observations (packet latencies in cycles)
// and reports summary statistics. The zero value is ready to use.
type Sample struct {
	n      int64
	sum    float64
	sumSq  float64
	values []float64 // retained for quantiles; bounded by Reservoir
	sorted []float64 // values in ascending order; stale while shorter than values
	// reservoir sampling bound; 0 means retain everything.
	reservoirCap int
	rngState     uint64
}

// NewSample returns a sample retaining at most reservoirCap values for
// quantile estimation (0 = retain all observations).
func NewSample(reservoirCap int) *Sample {
	return &Sample{reservoirCap: reservoirCap, rngState: 0x9e3779b97f4a7c15}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.n++
	s.sum += v
	s.sumSq += v * v
	s.sorted = s.sorted[:0]
	if s.reservoirCap == 0 || len(s.values) < s.reservoirCap {
		s.values = append(s.values, v)
		return
	}
	// Reservoir replacement keeps quantiles unbiased on long runs.
	s.rngState ^= s.rngState << 13
	s.rngState ^= s.rngState >> 7
	s.rngState ^= s.rngState << 17
	j := s.rngState % uint64(s.n)
	if int(j) < s.reservoirCap {
		s.values[j] = v
	}
}

// Mean returns the sample mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := (s.sumSq - float64(s.n)*m*m) / float64(s.n-1)
	if v < 0 {
		return 0 // numerical noise
	}
	return v
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Quantile returns the q-quantile (0 <= q <= 1) of the retained values
// using nearest-rank interpolation. It returns 0 for an empty sample.
// The first call after an Add sorts the retained values and later calls
// reuse that order, so Quantile writes to s as Add does.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.values) == 0 {
		return 0
	}
	if len(s.sorted) != len(s.values) {
		s.sorted = append(s.sorted[:0], s.values...)
		sort.Float64s(s.sorted)
	}
	vals := s.sorted
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return vals[lo]*(1-frac) + vals[hi]*frac
}

// z99 is the two-sided 99% normal critical value used by the paper's
// accuracy criterion.
const z99 = 2.5758293035489004

// HalfWidth99 returns the half-width of the 99% confidence interval for
// the mean under the normal approximation (appropriate for the large
// samples the testbench collects).
func (s *Sample) HalfWidth99() float64 {
	if s.n < 2 {
		return math.Inf(1)
	}
	return z99 * s.StdDev() / math.Sqrt(float64(s.n))
}

// RelativeError99 returns the half-width of the 99% confidence interval
// as a fraction of the mean — the quantity the paper keeps under 3%.
func (s *Sample) RelativeError99() float64 {
	m := s.Mean()
	if m == 0 {
		return math.Inf(1)
	}
	return s.HalfWidth99() / m
}
