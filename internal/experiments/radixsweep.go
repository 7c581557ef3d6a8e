package experiments

import "highradix/internal/router"

// radixSweep is an extension beyond the paper's figures: saturation
// throughput versus radix for the three main organizations, holding
// v=4 and per-buffer depths fixed. It makes the paper's scaling story
// quantitative in one table — the baseline's speculation and
// head-of-line losses persist at every radix, while the buffered and
// hierarchical organizations stay near full throughput as the switch
// grows; meanwhile (Figure 17(d)) the fully buffered crossbar's storage
// grows quadratically, which is exactly why the hierarchical design is
// the one that scales.
var radixSweep = satGrid{
	title: "Extension: saturation throughput vs radix (uniform random)",
	x:     "radix",
	rows: []latencyCase{
		{name: "baseline", cfg: baselineCVA},
		{name: "hierarchical-p8", cfg: hierP8},
		{name: "fully-buffered", cfg: fullyBuffered},
	},
	cols: []latencyCase{{cfg: router.Config{Radix: 16}}, {cfg: router.Config{Radix: 32}},
		{cfg: router.Config{Radix: 64}}, {cfg: router.Config{Radix: 128}}},
	xs:    []float64{16, 32, 64, 128},
	notes: []string{"buffered organizations hold near-full throughput at every radix; the baseline's allocation losses persist"},
}
