package experiments

import (
	"strings"
	"testing"

	"highradix/internal/stats"
)

// The four checks and the verdict table on a synthetic figure whose two
// curves cross at x = 0.7, at both scales: a verdict its entry does not
// expect is marked in either direction, a check that cannot read its
// table is one, and a claim whose figure has no table is left out.
func TestVerdictTable(t *testing.T) {
	tab := &stats.Table{}
	tab.AddScalar("saturation throughput a", 0.5, "")
	tab.AddScalar("saturation throughput b", 0.7, "")
	tab.AddScalar("saturation throughput c", 0.7, "")
	hi, lo := &stats.Series{Name: "radix-64"}, &stats.Series{Name: "radix-16"}
	for _, p := range [][3]float64{{0.1, 40, 51}, {0.7, 61.71, 60.32}, {0.9, 90, 100}} {
		hi.Add(p[0], p[1], false)
		lo.Add(p[0], p[2], false)
	}
	lo.Add(0.95, 200, true)
	tab.AddSeries(hi)
	tab.AddSeries(lo)
	cs := []Claim{
		{ID: "near", Figure: "f", Paper: "a ~ 0.45", Check: within(sat("a"), 0.45, 0.05)},
		{ID: "far", Figure: "f", Paper: "a ~ 0.6", Check: within(sat("a"), 0.6, 0.05), FailsAt: atBoth, Gap: "-10 pp"},
		{ID: "fixed", Figure: "f", Paper: "a ~ 0.5, once a known delta", Check: within(sat("a"), 0.5, 0.01), FailsAt: atBoth, Gap: "+5 pp"},
		{ID: "order", Figure: "f", Paper: "a < b < c", Check: ascending(sat("a"), sat("b"), sat("c"))},
		{ID: "cap", Figure: "f", Paper: "b under 0.8", Check: ascending(sat("b"), lit(0.8))},
		{ID: "cross", Figure: "f", Paper: "no crossover", Check: below(radix("", 0), radix("", 1)), FailsAt: atFull, Gap: "0.7"},
		{ID: "band", Figure: "f", Paper: "b/a in [1.2, 1.6]", Check: ratio(sat("b"), sat("a"), 1.2, 1.6)},
		{ID: "typo", Figure: "f", Paper: "names a scalar the table lacks", Check: within(sat("z"), 1, 0), FailsAt: atBoth},
		{ID: "elsewhere", Figure: "g", Paper: "not evaluated: no table g", Check: within(sat("a"), 0, 0)},
		{ID: "eq2", Figure: "eq2", Paper: "k = 64 beats k = 16", Check: ascending(named("T(k=64)"), named("T(k=16)"))},
	}
	tables := map[string]*stats.Table{"f": tab}
	quick := "== Claims: the paper's statements checked against the tables above ==\n" +
		"id     figure  paper                           measured                                             verdict\n" +
		"near   f       a ~ 0.45                        0.5                                                  ✔\n" +
		"far    f       a ~ 0.6                         0.5                                                  ✘ known delta: -10 pp\n" +
		"fixed  f       a ~ 0.5, once a known delta     0.5                                                  ✔ UNEXPECTED\n" +
		"order  f       a < b < c                       0.5 < 0.7 = 0.7                                      ✘ UNEXPECTED\n" +
		"cap    f       b under 0.8                     0.7 < 0.8                                            ✔\n" +
		"cross  f       no crossover                    crosses at 0.7: 61.71 ≥ 60.32                        ✘ UNEXPECTED\n" +
		"band   f       b/a in [1.2, 1.6]               0.7/0.5 = 1.4                                        ✔\n" +
		"typo   f       names a scalar the table lacks  error: no \"saturation throughput z\" #0 in the table  ✘ UNEXPECTED\n" +
		"eq2    eq2     k = 64 beats k = 16             40 < 51                                              ✔\n"
	// At Full the crossover is the entry's known delta.
	full := strings.Replace(quick, "61.71 ≥ 60.32                        ✘ UNEXPECTED", "61.71 ≥ 60.32                        ✘ known delta: 0.7", 1)
	for _, tc := range []struct {
		full bool
		want string
	}{{false, quick}, {true, full}} {
		if got := VerdictTable(Evaluate(cs, tables, tc.full)); got != tc.want {
			t.Errorf("full=%v:\n%s\nwant:\n%s", tc.full, got, tc.want)
		}
	}
}
