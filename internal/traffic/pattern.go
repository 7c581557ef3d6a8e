// Package traffic implements the traffic patterns and injection
// processes used by the paper's evaluation (Sections 4.3 and 7,
// Table 1): Bernoulli uniform random injection, diagonal, hotspot and
// bursty (Markov ON/OFF) patterns, the worst-case pattern for the
// hierarchical crossbar from Section 6, plus the classic permutation
// patterns often used alongside them.
package traffic

import (
	"fmt"
	"math/bits"

	"highradix/internal/sim"
)

// Pattern maps a source port to a destination port for each generated
// packet. Implementations may be stateless (uniform, permutations) or
// consult per-source state (bursty destinations).
type Pattern interface {
	// Dest returns the destination port for a packet injected at src.
	Dest(src int, rng *sim.RNG) int
	// Name identifies the pattern in reports.
	Name() string
}

// Uniform is Bernoulli uniform random traffic: every packet picks a
// destination uniformly among all k ports. This is the paper's primary
// workload (Section 4.3).
type Uniform struct{ K int }

// NewUniform returns uniform random traffic over k ports.
func NewUniform(k int) *Uniform { return &Uniform{K: k} }

// Dest implements Pattern.
func (u *Uniform) Dest(src int, rng *sim.RNG) int { return rng.Intn(u.K) }

// Name implements Pattern.
func (u *Uniform) Name() string { return "uniform" }

// Diagonal is Table 1's diagonal pattern: input i sends packets only to
// outputs i and (i+1) mod k, with equal probability.
type Diagonal struct{ K int }

// NewDiagonal returns diagonal traffic over k ports.
func NewDiagonal(k int) *Diagonal { return &Diagonal{K: k} }

// Dest implements Pattern.
func (d *Diagonal) Dest(src int, rng *sim.RNG) int {
	if rng.Bernoulli(0.5) {
		return src
	}
	return (src + 1) % d.K
}

// Name implements Pattern.
func (d *Diagonal) Name() string { return "diagonal" }

// Hotspot is Table 1's hotspot pattern: a uniform pattern with h
// outputs oversubscribed. For each input, 50% of traffic is sent to the
// h hotspot outputs (uniformly among them) and the other 50% is
// uniformly distributed over all outputs.
type Hotspot struct {
	K        int
	Hotspots []int
}

// NewHotspot returns hotspot traffic with the first h ports as hotspots
// (the paper uses h=8).
func NewHotspot(k, h int) *Hotspot {
	must("hotspot", k, 0, h)
	hs := make([]int, h)
	for i := range hs {
		hs[i] = i
	}
	return &Hotspot{K: k, Hotspots: hs}
}

// Dest implements Pattern.
func (h *Hotspot) Dest(src int, rng *sim.RNG) int {
	if rng.Bernoulli(0.5) {
		return h.Hotspots[rng.Intn(len(h.Hotspots))]
	}
	return rng.Intn(h.K)
}

// Name implements Pattern.
func (h *Hotspot) Name() string { return "hotspot" }

// WorstCaseHierarchical is the adversarial pattern of Section 6 for a
// hierarchical crossbar with subswitch size p: each group of inputs
// connected to the same row of subswitches sends packets only to a
// randomly selected output within the output group connected to a single
// column of subswitches, concentrating all traffic into k/p of the
// (k/p)^2 subswitches.
type WorstCaseHierarchical struct {
	K int
	P int
}

// NewWorstCaseHierarchical returns the worst-case pattern for radix k
// and subswitch size p. Input group g targets output group g.
func NewWorstCaseHierarchical(k, p int) *WorstCaseHierarchical {
	must("worstcase", k, p, 0)
	return &WorstCaseHierarchical{K: k, P: p}
}

// Dest implements Pattern.
func (w *WorstCaseHierarchical) Dest(src int, rng *sim.RNG) int {
	group := src / w.P
	return group*w.P + rng.Intn(w.P)
}

// Name implements Pattern.
func (w *WorstCaseHierarchical) Name() string { return "worstcase" }

// Permutation patterns, useful as additional stress tests beyond the
// paper's Table 1. All require k to be a power of two.

// BitComplement sends from s to ^s (within k ports).
type BitComplement struct{ K int }

// NewBitComplement returns bit-complement traffic over k ports (k must
// be a power of two).
func NewBitComplement(k int) *BitComplement {
	must("bitcomp", k, 0, 0)
	return &BitComplement{K: k}
}

// Dest implements Pattern.
func (b *BitComplement) Dest(src int, rng *sim.RNG) int { return (b.K - 1) ^ src }

// Name implements Pattern.
func (b *BitComplement) Name() string { return "bitcomp" }

// BitReverse sends from s to the bit-reversal of s.
type BitReverse struct{ K int }

// NewBitReverse returns bit-reverse traffic over k ports (k must be a
// power of two).
func NewBitReverse(k int) *BitReverse {
	must("bitrev", k, 0, 0)
	return &BitReverse{K: k}
}

// Dest implements Pattern.
func (b *BitReverse) Dest(src int, rng *sim.RNG) int {
	n := bits.Len(uint(b.K)) - 1
	return int(bits.Reverse(uint(src)) >> (bits.UintSize - n))
}

// Name implements Pattern.
func (b *BitReverse) Name() string { return "bitrev" }

// Transpose sends from s to the port whose index swaps the upper and
// lower halves of the address bits.
type Transpose struct{ K int }

// NewTranspose returns transpose traffic over k ports (k must be a power
// of two with an even number of address bits).
func NewTranspose(k int) *Transpose {
	must("transpose", k, 0, 0)
	return &Transpose{K: k}
}

// Dest implements Pattern.
func (t *Transpose) Dest(src int, rng *sim.RNG) int {
	n := (bits.Len(uint(t.K)) - 1) / 2
	lo := src & (1<<n - 1)
	hi := src >> n
	return lo<<n | hi
}

// Name implements Pattern.
func (t *Transpose) Name() string { return "transpose" }

// Shuffle sends from s to the one-bit left-rotation of s.
type Shuffle struct{ K int }

// NewShuffle returns shuffle traffic over k ports (k must be a power of
// two).
func NewShuffle(k int) *Shuffle {
	must("shuffle", k, 0, 0)
	return &Shuffle{K: k}
}

// Dest implements Pattern.
func (s *Shuffle) Dest(src int, rng *sim.RNG) int {
	n := bits.Len(uint(s.K)) - 1
	return ((src << 1) | (src >> (n - 1))) & (s.K - 1)
}

// Name implements Pattern.
func (s *Shuffle) Name() string { return "shuffle" }

// precondition states, once, what pattern name needs of its radix k,
// subswitch size p and hotspot count h: the constructors panic on its
// error (must) and ByName returns it.
func precondition(name string, k, p, h int) error {
	addrBits := bits.Len(uint(k)) - 1
	switch {
	case name == "hotspot" && (h <= 0 || h > k):
		return fmt.Errorf("traffic: hotspot count %d out of range [1,%d]", h, k)
	case name == "worstcase" && (p <= 0 || k%p != 0):
		return fmt.Errorf("traffic: subswitch size %d does not divide radix %d", p, k)
	case (name == "bitcomp" || name == "bitrev" || name == "shuffle" || name == "transpose") &&
		(k <= 0 || k&(k-1) != 0):
		return fmt.Errorf("traffic: radix %d is not a power of two", k)
	case name == "transpose" && addrBits%2 != 0:
		return fmt.Errorf("traffic: transpose requires an even number of address bits, radix %d has %d", k, addrBits)
	}
	return nil
}

func must(name string, k, p, h int) {
	if err := precondition(name, k, p, h); err != nil {
		panic(err)
	}
}

// ByName constructs a pattern from its report name; it is used by the
// CLIs. p is only consulted for the worst-case pattern, h for hotspot.
// A pattern whose precondition k, p or h breaks is an error, not a panic.
func ByName(name string, k, p, h int) (Pattern, error) {
	if err := precondition(name, k, p, h); err != nil {
		return nil, err
	}
	switch name {
	case "uniform":
		return NewUniform(k), nil
	case "diagonal":
		return NewDiagonal(k), nil
	case "hotspot":
		return NewHotspot(k, h), nil
	case "worstcase":
		return NewWorstCaseHierarchical(k, p), nil
	case "bitcomp":
		return NewBitComplement(k), nil
	case "bitrev":
		return NewBitReverse(k), nil
	case "transpose":
		return NewTranspose(k), nil
	case "shuffle":
		return NewShuffle(k), nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q", name)
	}
}
