package experiments

import (
	"highradix/internal/router"
	"highradix/internal/stats"
	"highradix/internal/sweep"
)

// RadixSweep is an extension beyond the paper's figures: saturation
// throughput versus radix for the three main organizations, holding
// v=4 and per-buffer depths fixed. It makes the paper's scaling story
// quantitative in one table — the baseline's speculation and
// head-of-line losses persist at every radix, while the buffered and
// hierarchical organizations stay near full throughput as the switch
// grows; meanwhile (Figure 17(d)) the fully buffered crossbar's storage
// grows quadratically, which is exactly why the hierarchical design is
// the one that scales. The (organization, radix) grid is flattened into
// one job list for the pool.
func RadixSweep(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Extension: saturation throughput vs radix (uniform random)",
		XLabel: "radix",
		YLabel: "saturation throughput (fraction of capacity)",
	}
	radices := []int{16, 32, 64, 128}
	cases := []struct {
		name string
		cfg  func(k int) router.Config
	}{
		{"baseline", func(k int) router.Config {
			return router.Config{Arch: router.ArchBaseline, Radix: k, VA: router.CVA}
		}},
		{"hierarchical-p8", func(k int) router.Config {
			return router.Config{Arch: router.ArchHierarchical, Radix: k, SubSize: 8}
		}},
		{"fully-buffered", func(k int) router.Config {
			return router.Config{Arch: router.ArchBuffered, Radix: k}
		}},
	}
	var jobs []router.Config
	for _, c := range cases {
		for _, k := range radices {
			jobs = append(jobs, c.cfg(k))
		}
	}
	p := s.pool()
	thrs, err := sweep.Gather(jobs, func(cfg router.Config) (float64, error) {
		return s.satThroughput(p, s.opts(cfg))
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cases {
		series := &stats.Series{Name: c.name}
		for ki, k := range radices {
			series.Add(float64(k), thrs[ci*len(radices)+ki], false)
		}
		t.AddSeries(series)
	}
	t.AddNote("buffered organizations hold near-full throughput at every radix; the baseline's allocation losses persist")
	return t, nil
}
