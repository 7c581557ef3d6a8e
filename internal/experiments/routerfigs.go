package experiments

import (
	"strconv"

	"highradix/internal/router"
	"highradix/internal/stats"
	"highradix/internal/sweep"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// Fig9 reproduces Figure 9: latency versus offered load of the baseline
// high-radix router (k=64, v=4, distributed allocation, speculative VC
// allocation with CVA and OVA) against the low-radix (k=16) router with
// centralized single-cycle allocation. Uniform random traffic,
// single-flit packets.
func Fig9(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 9: latency vs offered load, baseline architecture",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	cases := []latencyCase{
		{name: "low-radix(k=16)", cfg: router.Config{Arch: router.ArchLowRadix, Radix: 16}},
		{name: "high-radix CVA", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA}},
		{name: "high-radix OVA", cfg: router.Config{Arch: router.ArchBaseline, VA: router.OVA}},
	}
	if err := s.latencyFigure(t, cases); err != nil {
		return nil, err
	}
	t.AddNote("paper: low-radix ~60%%; high-radix ~50%% with CVA (12%% lower), ~45%% with OVA")
	return t, nil
}

// Fig11 reproduces Figure 11: the value of prioritizing nonspeculative
// requests with a dual switch arbiter, for 1 VC (a) and 4 VCs (b),
// using 10-flit packets and CVA (with single-flit packets every request
// is speculative, so prioritization has no effect).
func Fig11(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 11: one vs two (prioritized) switch arbiters, 10-flit packets, CVA",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	long := func(o *testbench.Options) { o.PktLen = 10 }
	var cases []latencyCase
	for _, vcs := range []int{1, 4} {
		for _, prio := range []bool{false, true} {
			name := strconv.Itoa(vcs) + "VC-"
			if prio {
				name += "two-arbiters"
			} else {
				name += "one-arbiter"
			}
			cases = append(cases, latencyCase{
				name:   name,
				cfg:    router.Config{Arch: router.ArchBaseline, VA: router.CVA, VCs: vcs, Prioritized: prio},
				mutate: long,
			})
		}
	}
	if err := s.latencyFigure(t, cases); err != nil {
		return nil, err
	}
	t.AddNote("paper: prioritization buys ~10%% throughput with 1 VC and little with 4 VCs")
	return t, nil
}

// Fig13 reproduces Figure 13: the fully buffered crossbar against the
// baseline (CVA) and the low-radix reference on uniform random traffic.
func Fig13(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 13: fully buffered crossbar vs baseline vs low-radix",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	cases := []latencyCase{
		{name: "low-radix(k=16)", cfg: router.Config{Arch: router.ArchLowRadix, Radix: 16}},
		{name: "baseline", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA}},
		{name: "fully-buffered", cfg: router.Config{Arch: router.ArchBuffered}},
	}
	if err := s.latencyFigure(t, cases); err != nil {
		return nil, err
	}
	t.AddNote("paper: crosspoint buffers remove head-of-line blocking; saturation approaches 100%% of capacity")
	return t, nil
}

// Fig14 reproduces Figure 14: the effect of crosspoint buffer size on
// the fully buffered crossbar for (a) single-flit and (b) 10-flit
// packets.
func Fig14(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 14: crosspoint buffer size, fully buffered crossbar",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	var cases []latencyCase
	for _, pkt := range []int{1, 10} {
		for _, depth := range []int{1, 4, 16, 64} {
			if pkt == 1 && depth > 16 {
				continue // the paper sweeps 1-16 for short packets
			}
			pkt := pkt
			cases = append(cases, latencyCase{
				name:   strconv.Itoa(pkt) + "flit-" + strconv.Itoa(depth) + "buf",
				cfg:    router.Config{Arch: router.ArchBuffered, XpointBufDepth: depth},
				mutate: func(o *testbench.Options) { o.PktLen = pkt },
			})
		}
	}
	if err := s.latencyFigure(t, cases); err != nil {
		return nil, err
	}
	t.AddNote("paper: 4-flit buffers suffice for short packets; long packets need larger buffers to clear input-buffer HoL blocking")
	return t, nil
}

// Fig17a reproduces Figure 17(a): the hierarchical crossbar under
// uniform random traffic for subswitch sizes 4..32 against the baseline
// and the fully buffered crossbar.
func Fig17a(s Scale) (*stats.Table, error) {
	return hierSweep(s, "Figure 17(a): hierarchical crossbar, uniform random traffic", nil)
}

// Fig17b reproduces Figure 17(b): the same comparison under the
// worst-case traffic pattern that concentrates all traffic of each
// input row group onto a single column of subswitches. The pattern is
// fixed at 8-input groups (the paper's p=8 focus), which makes the
// p = 8, 16 and 32 routers structurally equivalent under it, so their
// rows are identical; only p = 4 differs. Each p's own worst case
// (hrsim -pattern worstcase -subsize p -load 1, seed 1) gives 0.872,
// 0.850, 0.838 and 0.835 for p = 4, 8, 16 and 32.
func Fig17b(s Scale) (*stats.Table, error) {
	pat := traffic.NewWorstCaseHierarchical(64, 8)
	return hierSweep(s, "Figure 17(b): hierarchical crossbar, worst-case traffic (p=8 groups)",
		func(o *testbench.Options) { o.Pattern = pat })
}

func hierSweep(s Scale, title string, mutate func(*testbench.Options)) (*stats.Table, error) {
	t := &stats.Table{Title: title, XLabel: "offered load", YLabel: "latency (cycles)"}
	cases := []latencyCase{
		{name: "baseline", cfg: router.Config{Arch: router.ArchBaseline, VA: router.CVA}},
		{name: "subswitch-32", cfg: router.Config{Arch: router.ArchHierarchical, SubSize: 32}},
		{name: "subswitch-16", cfg: router.Config{Arch: router.ArchHierarchical, SubSize: 16}},
		{name: "subswitch-8", cfg: router.Config{Arch: router.ArchHierarchical, SubSize: 8}},
		{name: "subswitch-4", cfg: router.Config{Arch: router.ArchHierarchical, SubSize: 4}},
		{name: "fully-buffered", cfg: router.Config{Arch: router.ArchBuffered}},
	}
	for i := range cases {
		cases[i].mutate = mutate
	}
	if err := s.latencyFigure(t, cases); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig17c reproduces Figure 17(c): 10-flit packets with the total buffer
// storage held equal — the hierarchical crossbar (p=8) gets
// p/2 * 4 = 16-entry buffers to match the fully buffered crossbar's
// 4-entry crosspoint buffers.
func Fig17c(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 17(c): long packets at equal total buffer storage",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	// Each subswitch input and output buffer, sized by XpointBufDepth as
	// the crosspoint buffers are, stands for p/2 crosspoint buffers of
	// the flat crossbar.
	xp := router.Config{}.WithDefaults().XpointBufDepth
	depth := xp * 8 / 2
	long := func(o *testbench.Options) { o.PktLen = 10 }
	cases := []latencyCase{
		{name: "fully-buffered(" + strconv.Itoa(xp) + "/xp)",
			cfg: router.Config{Arch: router.ArchBuffered}, mutate: long},
		{name: "hierarchical-p8(" + strconv.Itoa(depth) + "/buf)",
			cfg: router.Config{
				Arch: router.ArchHierarchical, SubSize: 8, XpointBufDepth: depth},
			mutate: long},
	}
	if err := s.latencyFigure(t, cases); err != nil {
		return nil, err
	}
	t.AddScalar("hier buffer entries for equal storage", float64(depth), "flits")
	t.AddNote("paper: at equal storage the hierarchical crossbar beats the fully buffered crossbar on long packets")
	return t, nil
}

// Fig18 reproduces Figure 18: nonuniform traffic (Table 1) on the
// baseline, fully buffered and hierarchical (p=8) architectures:
// (a) diagonal, (b) hotspot with h=8 oversubscribed outputs, (c) bursty
// Markov ON/OFF with average burst length 8.
func Fig18(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 18: nonuniform traffic (diagonal, hotspot, bursty)",
		XLabel: "offered load",
		YLabel: "latency (cycles)",
	}
	archs := []struct {
		name string
		cfg  router.Config
	}{
		{"baseline", router.Config{Arch: router.ArchBaseline, VA: router.CVA}},
		{"hierarchical-p8", router.Config{Arch: router.ArchHierarchical, SubSize: 8}},
		{"fully-buffered", router.Config{Arch: router.ArchBuffered}},
	}
	pats := []struct {
		name   string
		mutate func(*testbench.Options)
	}{
		{"diag", func(o *testbench.Options) { o.Pattern = traffic.NewDiagonal(64) }},
		{"hot", func(o *testbench.Options) { o.Pattern = traffic.NewHotspot(64, 8) }},
		{"burst", func(o *testbench.Options) { o.Bursty = true }},
	}
	var cases []latencyCase
	for _, p := range pats {
		for _, a := range archs {
			cases = append(cases, latencyCase{name: p.name + "/" + a.name, cfg: a.cfg, mutate: p.mutate})
		}
	}
	if err := s.latencyFigure(t, cases); err != nil {
		return nil, err
	}
	t.AddNote("paper: diagonal, hierarchical exceeds baseline by ~10%%; hotspot limits all to <40%%; bursty, buffered architectures reach ~100%% vs baseline ~50%%")
	return t, nil
}

// TableT1 measures saturation throughput of every architecture on every
// Table 1 traffic pattern plus uniform random — a compact summary that
// subsumes the throughput claims scattered through the paper's text.
// The full architecture-by-pattern grid is flattened into one job list
// and submitted to the pool at once.
func TableT1(s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Table 1 summary: saturation throughput by architecture and pattern",
		XLabel: "pattern#",
		YLabel: "saturation throughput (fraction of capacity)",
	}
	pats := []struct {
		name   string
		mutate func(*testbench.Options)
	}{
		{"uniform", nil},
		{"diagonal", func(o *testbench.Options) { o.Pattern = traffic.NewDiagonal(64) }},
		{"hotspot", func(o *testbench.Options) { o.Pattern = traffic.NewHotspot(64, 8) }},
		{"bursty", func(o *testbench.Options) { o.Bursty = true }},
		{"worstcase", func(o *testbench.Options) { o.Pattern = traffic.NewWorstCaseHierarchical(64, 8) }},
	}
	archs := []struct {
		name string
		cfg  router.Config
	}{
		{"baseline", router.Config{Arch: router.ArchBaseline, VA: router.CVA}},
		{"buffered", router.Config{Arch: router.ArchBuffered}},
		{"sharedxp", router.Config{Arch: router.ArchSharedXpoint}},
		{"hier-p8", router.Config{Arch: router.ArchHierarchical, SubSize: 8}},
	}
	type cell struct {
		cfg    router.Config
		mutate func(*testbench.Options)
	}
	var jobs []cell
	for _, a := range archs {
		for _, p := range pats {
			jobs = append(jobs, cell{cfg: a.cfg, mutate: p.mutate})
		}
	}
	p := s.pool()
	thrs, err := sweep.Gather(jobs, func(j cell) (float64, error) {
		return s.satThroughput(p, j.cfg, j.mutate)
	})
	if err != nil {
		return nil, err
	}
	for ai, a := range archs {
		series := &stats.Series{Name: a.name}
		for pi := range pats {
			series.Add(float64(pi), thrs[ai*len(pats)+pi], false)
		}
		t.AddSeries(series)
	}
	for pi, p := range pats {
		t.AddNote("pattern %d = %s", pi, p.name)
	}
	return t, nil
}
