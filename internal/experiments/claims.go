package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"strings"
	"text/tabwriter"

	"highradix/internal/stats"
)

// A Claim is one statement of the paper, checked against the table of
// the figure it is about. Where this reproduction is known to differ
// from the paper, FailsAt names the scales at which the check fails and
// Gap records the measured difference: closing the delta flips the
// entry, and a regression flips it back.
type Claim struct {
	ID, Figure, Paper string
	Check             Check
	FailsAt           uint8
	Gap               string
}

// FailsAt bits: the scales at which a claim's check is known to fail.
const atQuick, atFull, atBoth = 1, 2, 3

// A Check reads one figure's table and reports what it measured and
// whether the claim holds there.
type Check func(*stats.Table) (measured string, holds bool, err error)

// ref names one number or curve of a table: the n-th scalar (or
// series) whose name starts with prefix. With prefix empty it is the
// literal v.
type ref struct {
	prefix string
	n      int
	v      float64
}

func named(prefix string) ref { return ref{prefix: prefix} }
func sat(name string) ref     { return ref{prefix: "saturation throughput " + name} }
func lit(v float64) ref       { return ref{v: v} }

// radix is the n-th curve (or zero-load scalar) of a Fig 19 table,
// whose names differ between scales: radix-16 and radix-4 at Quick,
// radix-64 and radix-16 at Full, the higher radix first.
func radix(prefix string, n int) ref { return ref{prefix: prefix + "radix-", n: n} }

func nth[T any](items []T, name func(T) string, r ref) (T, error) {
	n := r.n
	for _, it := range items {
		if strings.HasPrefix(name(it), r.prefix) {
			if n == 0 {
				return it, nil
			}
			n--
		}
	}
	var zero T
	return zero, fmt.Errorf("no %q #%d in the table", r.prefix, r.n)
}

func (r ref) scalar(t *stats.Table) (float64, error) {
	if r.prefix == "" {
		return r.v, nil
	}
	s, err := nth(t.Scalars, func(s stats.Scalar) string { return s.Name }, r)
	return s.Value, err
}

func (r ref) series(t *stats.Table) (*stats.Series, error) {
	return nth(t.Series, func(s *stats.Series) string { return s.Name }, r)
}

func num(v float64) string { return fmt.Sprintf("%.4g", v) }

// within holds when r lies within tol of the paper's value.
func within(r ref, paper, tol float64) Check {
	return func(t *stats.Table) (string, bool, error) {
		v, err := r.scalar(t)
		return num(v), math.Abs(v-paper) <= tol, err
	}
}

// ascending holds when each number is strictly below the next.
func ascending(rs ...ref) Check {
	return func(t *stats.Table) (string, bool, error) {
		var b strings.Builder
		holds, prev := true, 0.0
		for i, r := range rs {
			v, err := r.scalar(t)
			if err != nil {
				return "", false, err
			}
			if i > 0 {
				b.WriteString([...]string{" < ", " = ", " > "}[cmp.Compare(prev, v)+1])
				holds = holds && prev < v
			}
			b.WriteString(num(v))
			prev = v
		}
		return b.String(), holds, nil
	}
}

// below holds when curve a lies under curve b at every x both have: the
// two never cross.
func below(a, b ref) Check {
	return func(t *stats.Table) (string, bool, error) {
		sa, errA := a.series(t)
		sb, errB := b.series(t)
		if err := errors.Join(errA, errB); err != nil {
			return "", false, err
		}
		ys := map[float64]float64{}
		for _, p := range sb.Points {
			ys[p.X] = p.Y
		}
		shared := 0
		for _, p := range sa.Points {
			y, ok := ys[p.X]
			if !ok {
				continue
			}
			if p.Y >= y {
				return fmt.Sprintf("crosses at %g: %s ≥ %s", p.X, num(p.Y), num(y)), false, nil
			}
			shared++
		}
		if shared == 0 {
			return "", false, fmt.Errorf("%q and %q share no x", sa.Name, sb.Name)
		}
		return fmt.Sprintf("below at all %d shared x", shared), true, nil
	}
}

// ratio holds when num/den lies in [lo, hi].
func ratio(n, d ref, lo, hi float64) Check {
	return func(t *stats.Table) (string, bool, error) {
		a, errA := n.scalar(t)
		b, errB := d.scalar(t)
		r := a / b
		return fmt.Sprintf("%s/%s = %s", num(a), num(b), num(r)), r >= lo && r <= hi, errors.Join(errA, errB)
	}
}

// Claims is the paper's evaluation as checks, in the order of its
// figures. The measured side of every entry is a registry figure's
// table, or "eq2", which Evaluate computes.
var Claims = []Claim{
	{ID: "fig1-decade", Figure: "fig1", Paper: "off-chip bandwidth grows ~10x every 5 years (top routers)", Check: within(named("years-per-10x (highest"), 5, 1.5)},
	{ID: "fig2-aspect-2003", Figure: "fig2", Paper: "aspect ratio 554 in 2003", Check: within(named("aspect(2003)"), 554, 15)},
	{ID: "fig2-kopt-2003", Figure: "fig2", Paper: "optimal radix 40 in 2003", Check: within(named("k_opt(2003)"), 40, 2)},
	{ID: "fig2-aspect-2010", Figure: "fig2", Paper: "aspect ratio 2978 in 2010", Check: within(named("aspect(2010)"), 2978, 1)},
	{ID: "fig2-kopt-2010", Figure: "fig2", Paper: "optimal radix 127 in 2010", Check: within(named("k_opt(2010)"), 127, 3)},
	{ID: "fig3-min-2003", Figure: "fig3", Paper: "latency vs radix is U-shaped, minimum at the optimal radix (2003)", Check: within(named("argmin-latency(2003)"), 40, 2)},
	{ID: "fig3-min-2010", Figure: "fig3", Paper: "latency vs radix is U-shaped, minimum at the optimal radix (2010)", Check: within(named("argmin-latency(2010)"), 127, 3)},
	{ID: "fig3-cost", Figure: "fig3", Paper: "2010 networks cost more channels than 2003 at every radix", Check: below(named("cost-2003"), named("cost-2010"))},
	{ID: "eq2-min", Figure: "eq2", Paper: "Equation (2) in cycles at N = 4096 is smallest at k = 64 (k = 64, 16, 8, 4, 2, 4096)", Check: ascending(named("T(k=64)"), named("T(k=16)"), named("T(k=8)"), named("T(k=4)"), named("T(k=2)"), named("T(k=4096)"))},
	{ID: "fig9-lowradix", Figure: "fig9", Paper: "low-radix router saturates at ~60%", Check: within(sat("low-radix"), 0.60, 0.05), FailsAt: atBoth, Gap: "+11 pp"},
	{ID: "fig9-cva", Figure: "fig9", Paper: "high-radix baseline with CVA saturates at ~50%", Check: within(sat("high-radix CVA"), 0.50, 0.05), FailsAt: atBoth, Gap: "+9 pp"},
	{ID: "fig9-ova", Figure: "fig9", Paper: "high-radix baseline with OVA saturates at ~45%", Check: within(sat("high-radix OVA"), 0.45, 0.05), FailsAt: atBoth, Gap: "+12 pp"},
	{ID: "fig9-order", Figure: "fig9", Paper: "OVA < CVA < low-radix", Check: ascending(sat("high-radix OVA"), sat("high-radix CVA"), sat("low-radix"))},
	{ID: "fig9-cva-gap", Figure: "fig9", Paper: "CVA saturates ~1/6 below low-radix (50% vs 60%)", Check: ratio(sat("high-radix CVA"), sat("low-radix"), 0.78, 0.88)},
	{ID: "fig11-1vc", Figure: "fig11", Paper: "with 1 VC, two arbiters gain ~10%", Check: ratio(sat("1VC-two"), sat("1VC-one"), 1.05, 1.2)},
	{ID: "fig11-4vc", Figure: "fig11", Paper: "with 4 VCs, two arbiters gain little", Check: ratio(sat("4VC-two"), sat("4VC-one"), 0.98, 1.03)},
	{ID: "fig13-buffered", Figure: "fig13", Paper: "fully buffered crossbar saturates at ~100%", Check: within(sat("fully-buffered"), 1, 0.05)},
	{ID: "fig13-order", Figure: "fig13", Paper: "baseline < low-radix < fully buffered", Check: ascending(sat("baseline"), sat("low-radix"), sat("fully-buffered"))},
	{ID: "fig14-1buf", Figure: "fig14", Paper: "1-flit packets: 1-flit crosspoint buffers below 4-flit ones", Check: ascending(sat("1flit-1buf"), sat("1flit-4buf"))},
	{ID: "fig14-4buf", Figure: "fig14", Paper: "1-flit packets: four-flit buffers are sufficient (~100%)", Check: within(sat("1flit-4buf"), 1, 0.05)},
	{ID: "fig14-16buf", Figure: "fig14", Paper: "1-flit packets: 16-flit buffers ~100%", Check: within(sat("1flit-16buf"), 1, 0.05)},
	{ID: "fig14-long", Figure: "fig14", Paper: "10-flit packets need larger buffers: 1 < 4 < 16 < 64 flits", Check: ascending(sat("10flit-1buf"), sat("10flit-4buf"), sat("10flit-16buf"), sat("10flit-64buf"))},
	{ID: "fig14-long-4buf", Figure: "fig14", Paper: "10-flit packets with 4-flit buffers stay well below short packets", Check: ratio(sat("10flit-4buf"), sat("1flit-4buf"), 0.5, 0.9)},
	{ID: "fig14-long-64buf", Figure: "fig14", Paper: "10-flit packets with 64-flit buffers approach short packets", Check: ratio(sat("10flit-64buf"), sat("1flit-4buf"), 0.9, 1.01)},
	{ID: "fig15-crossover", Figure: "fig15", Paper: "storage area exceeds wire area above radix ~50", Check: within(named("storage>wire"), 50, 3)},
	{ID: "fig17a-gain", Figure: "fig17a", Paper: "hierarchical p=8 gives 20-60% more throughput than the baseline", Check: ratio(sat("subswitch-8"), sat("baseline"), 1.2, 1.6), FailsAt: atBoth, Gap: "+63-65%"},
	{ID: "fig17a-p32", Figure: "fig17a", Paper: "subswitch-32 performs as well as fully buffered", Check: ratio(sat("subswitch-32"), sat("fully-buffered"), 0.95, 1.01)},
	{ID: "fig17a-order", Figure: "fig17a", Paper: "uniform: smaller subswitches do better (p = 32, 16, 8, 4)", Check: ascending(sat("subswitch-32"), sat("subswitch-16"), sat("subswitch-8"), sat("subswitch-4"))},
	{ID: "fig17b-gain", Figure: "fig17b", Paper: "worst case: hierarchical p=8 still 20-60% above the baseline", Check: ratio(sat("subswitch-8"), sat("baseline"), 1.2, 1.6)},
	{ID: "fig17b-order", Figure: "fig17b", Paper: "worst case: smaller subswitches hurt less (p = 32, 16, 8, 4)", Check: ascending(sat("subswitch-32"), sat("subswitch-16"), sat("subswitch-8"), sat("subswitch-4")), FailsAt: atBoth, Gap: "p = 8, 16, 32 are one row"},
	{ID: "fig17b-p8-loss", Figure: "fig17b", Paper: "worst case: p=8 ~30% below fully buffered", Check: ratio(sat("subswitch-8"), sat("fully-buffered"), 0.65, 0.75), FailsAt: atBoth, Gap: "12-13% below"},
	{ID: "fig17b-buffered", Figure: "fig17b", Paper: "worst case: fully buffered unaffected (~100%)", Check: within(sat("fully-buffered"), 1, 0.05)},
	{ID: "fig17c-storage", Figure: "fig17c", Paper: "10-flit packets at equal storage: hierarchical beats fully buffered", Check: ascending(sat("fully-buffered"), sat("hierarchical"))},
	{ID: "fig17d-bits", Figure: "fig17d", Paper: "hierarchical p=8 stores fewer bits than fully buffered at every radix", Check: below(named("subswitch-8"), named("fully-buffered"))},
	{ID: "fig17d-area", Figure: "fig17d", Paper: "k=64, p=8: 40% less area than fully buffered", Check: within(named("total-area savings"), 0.40, 0.02)},
	{ID: "fig18-diag", Figure: "fig18", Paper: "diagonal: baseline < hierarchical < fully buffered", Check: ascending(sat("diag/baseline"), sat("diag/hierarchical"), sat("diag/fully"))},
	{ID: "fig18-hot-hier", Figure: "fig18", Paper: "hotspot: under 40% for all; the baseline is hit hardest", Check: ascending(sat("hot/baseline"), sat("hot/hierarchical"), lit(0.4))},
	{ID: "fig18-hot-buffered", Figure: "fig18", Paper: "hotspot: under 40% for all; the baseline is hit hardest", Check: ascending(sat("hot/baseline"), sat("hot/fully"), lit(0.4))},
	{ID: "fig18-burst-baseline", Figure: "fig18", Paper: "bursty: baseline saturates at ~50%", Check: within(sat("burst/baseline"), 0.5, 0.05)},
	{ID: "fig18-burst-order", Figure: "fig18", Paper: "bursty: hierarchical outperforms fully buffered", Check: ascending(sat("burst/fully"), sat("burst/hierarchical"))},
	{ID: "fig19-zero-load", Figure: "fig19", Paper: "the high-radix network has the lower zero-load latency", Check: ascending(radix("zero-load latency ", 0), radix("zero-load latency ", 1))},
	{ID: "fig19-load", Figure: "fig19", Paper: "the high-radix latency curve stays below the low-radix one", Check: below(radix("", 0), radix("", 1)), FailsAt: atFull, Gap: "crossover at load 0.7"},
	{ID: "creditbus", Figure: "creditbus", Paper: "minimal difference between ideal credits and the shared bus", Check: ratio(sat("shared-bus"), sat("ideal-credits"), 0.98, 1.02)},
	{ID: "sharedxp", Figure: "sharedxp", Paper: "shared-buffer crosspoints fall between baseline and per-VC buffers", Check: ascending(sat("baseline"), sat("shared-ACK/NACK"), sat("per-VC-buffers"))},
	{ID: "localgroup", Figure: "localgroup", Paper: "throughput insensitive to the local group size m (4 vs 64)", Check: ratio(sat("m=4"), sat("m=64"), 0.97, 1.03)},
	{ID: "specpolicy", Figure: "specpolicy", Paper: "careless re-bidding wastes bandwidth: fixed bids < rotating bids", Check: ascending(sat("bid-fixed"), sat("bid-rotate"))},
	{ID: "allociters", Figure: "allociters", Paper: "more allocation iterations match more: 1 < 2 < 4", Check: ascending(sat("iters=1"), sat("iters=2"), sat("iters=4"))},
	{ID: "radixsweep", Figure: "radixsweep", Paper: "the baseline stays below hierarchical p=8 at every radix", Check: below(named("baseline"), named("hierarchical"))},
}

// A Verdict is one claim evaluated at one scale.
type Verdict struct {
	Claim
	Measured string
	// Holds reports whether the check passed; Expected whether that is
	// what the entry's FailsAt says for this scale.
	Holds, Expected bool
}

// Evaluate checks every claim whose figure is in tables, the registry
// figures' tables at one scale (Full when full, else Quick). A check
// that cannot read its table is a failure no entry expects.
func Evaluate(cs []Claim, tables map[string]*stats.Table, full bool) []Verdict {
	all := map[string]*stats.Table{"eq2": eq2Cycles()}
	maps.Copy(all, tables)
	at := map[bool]uint8{false: atQuick, true: atFull}[full]
	var vs []Verdict
	for _, c := range cs {
		t, ok := all[c.Figure]
		if !ok {
			continue
		}
		m, holds, err := c.Check(t)
		expected := holds == (c.FailsAt&at == 0)
		if err != nil {
			m, holds, expected = "error: "+err.Error(), false, false
		}
		vs = append(vs, Verdict{Claim: c, Measured: m, Holds: holds, Expected: expected})
	}
	return vs
}

// VerdictTable renders verdicts as a text table: ID, figure, the
// paper's statement, what was measured, and the verdict, with a known
// delta's gap and a mark on any verdict its entry does not expect.
func VerdictTable(vs []Verdict) string {
	var b strings.Builder
	b.WriteString("== Claims: the paper's statements checked against the tables above ==\n")
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w, "id\tfigure\tpaper\tmeasured\tverdict")
	for _, v := range vs {
		verdict := map[bool]string{true: "✔", false: "✘"}[v.Holds]
		if !v.Holds && v.Expected {
			verdict += " known delta: " + v.Gap
		}
		if !v.Expected {
			verdict += " UNEXPECTED"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", v.ID, v.Figure, v.Paper, v.Measured, verdict)
	}
	w.Flush()
	return b.String()
}
