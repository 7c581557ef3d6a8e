package experiments

import (
	"fmt"
	"math"

	"strconv"

	"highradix/internal/analytic"
	"highradix/internal/area"
	"highradix/internal/router"
	"highradix/internal/stats"
)

// Fig1 reproduces Figure 1: bandwidth per router node versus time, with
// the paper's two exponential fits (all routers, dotted; highest
// performance routers, solid). The headline observation is an order of
// magnitude of off-chip bandwidth roughly every five years.
func Fig1(Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 1: router pin bandwidth vs year",
		XLabel: "year",
		YLabel: "bandwidth (Gb/s)",
	}
	data := &stats.Series{Name: "routers"}
	for _, p := range analytic.RouterHistory {
		data.Add(float64(p.Year), p.GbPerSec, false)
	}
	t.AddSeries(data)
	all := analytic.FitTrend(analytic.RouterHistory, false)
	top := analytic.FitTrend(analytic.RouterHistory, true)
	fitAll := &stats.Series{Name: "fit-all"}
	fitTop := &stats.Series{Name: "fit-top"}
	for year := 1985; year <= 2010; year += 5 {
		fitAll.Add(float64(year), all.Eval(float64(year)), false)
		fitTop.Add(float64(year), top.Eval(float64(year)), false)
	}
	t.AddSeries(fitAll)
	t.AddSeries(fitTop)
	t.AddScalar("years-per-10x (all routers)", all.DecadeYears(), "years")
	t.AddScalar("years-per-10x (highest-performance)", top.DecadeYears(), "years")
	t.AddNote("paper: an order of magnitude increase in off-chip bandwidth approximately every five years")
	return t, nil
}

// Fig2 reproduces Figure 2: the latency-optimal radix as a function of
// the router aspect ratio A = B*tr*ln(N)/L, with the four labeled
// technology points.
func Fig2(Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 2: optimal radix vs aspect ratio",
		XLabel: "aspect ratio",
		YLabel: "optimal radix k",
	}
	curve := &stats.Series{Name: "k*ln^2(k)=A"}
	for a := 10.0; a <= 10000.0; a *= math.Pow(10, 0.25) {
		curve.Add(a, analytic.OptimalRadix(a), false)
	}
	t.AddSeries(curve)
	points := &stats.Series{Name: "technology"}
	for _, tech := range []analytic.Technology{analytic.Tech1991, analytic.Tech1996, analytic.Tech2003, analytic.Tech2010} {
		a := tech.AspectRatio()
		points.Add(a, tech.OptimalRadixFor(), false)
		t.AddScalar("aspect("+tech.Name+")", a, "")
		t.AddScalar("k_opt("+tech.Name+")", tech.OptimalRadixFor(), "")
	}
	t.AddSeries(points)
	t.AddNote("paper: aspect ratio 554 and optimum radix 40 for 2003; 2978 and 127 for 2010")
	return t, nil
}

// Fig3 reproduces Figure 3: (a) network latency versus radix and (b)
// network cost versus radix for the 2003 and 2010 technologies.
func Fig3(Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Figure 3: latency (ns) and cost (x1000 channels) vs radix",
		XLabel: "radix",
		YLabel: "latency in ns (lat-*), channels/1000 (cost-*)",
	}
	radices := []float64{4, 8, 16, 24, 32, 40, 48, 64, 96, 127, 160, 200, 256}
	for _, tech := range []analytic.Technology{analytic.Tech2003, analytic.Tech2010} {
		lat := &stats.Series{Name: "lat-" + tech.Name}
		cost := &stats.Series{Name: "cost-" + tech.Name}
		for _, k := range radices {
			lat.Add(k, tech.Latency(k)*1e9, false)
			cost.Add(k, tech.Cost(k)/1000, false)
		}
		t.AddSeries(lat)
		t.AddSeries(cost)
		t.AddScalar("argmin-latency("+tech.Name+")", argminX(lat), "radix")
	}
	t.AddNote("latency is U-shaped (hop count vs serialization); cost decreases monotonically with radix")
	return t, nil
}

// eq2Cycles tabulates Equation (2) in cycles, (2d−1)(tr+1)+ser with tr
// and ser from analytic.Cycles, at every radix k with k^d = 4096: the
// zero-load latency network.TestZeroLoadIsEquationTwo holds the engine
// to at k = 4, 8, 16 and 64. It is no registry figure: only Evaluate
// reads it, for the claim that the minimum is at k = 64.
func eq2Cycles() *stats.Table {
	t := &stats.Table{Title: "Equation (2) in cycles, N = 4096"}
	for _, kd := range [][2]int{{2, 12}, {4, 6}, {8, 4}, {16, 3}, {64, 2}, {4096, 1}} {
		tr, ser := analytic.Cycles(kd[0])
		t.AddScalar(fmt.Sprintf("T(k=%d)", kd[0]), float64((2*kd[1]-1)*(tr+1)+ser), "cycles")
	}
	return t
}

func argminX(s *stats.Series) float64 {
	best, bestY := 0.0, math.Inf(1)
	for _, p := range s.Points {
		if p.Y < bestY {
			bestY, best = p.Y, p.X
		}
	}
	return best
}

// Area is a built router priced in the area model: the bits of flit
// storage it holds, their die area, and the wire area of its crossbar.
type Area struct {
	Bits, StorageMm2, WireMm2 float64
}

// TotalMm2 returns storage plus wire area. A hierarchical crossbar's
// subswitches tile the same k x k wire matrix as the flat crossbar, so
// every architecture of one radix and VC count shares the wire term.
func (a Area) TotalMm2() float64 { return a.StorageMm2 + a.WireMm2 }

// Price builds the router cfg configures (zero fields take the paper's
// defaults) and prices the storage it built in m. cfg must validate:
// callers price fixed configurations or check their input first.
func Price(m area.Model, cfg router.Config) Area {
	r, err := router.New(cfg)
	if err != nil {
		panic(err)
	}
	c, bits := r.Config(), m.StorageBits(r.Storage())
	return Area{Bits: bits, StorageMm2: m.StorageAreaMm2(bits), WireMm2: m.WireAreaMm2(c.Radix, c.VCs)}
}

// Crossover returns the smallest radix at which the fully buffered
// crossbar's storage area exceeds its wire area (the paper reports ~50),
// or -1 when no buildable radix does.
func Crossover(m area.Model) int {
	for k := 2; k <= router.MaxRadix; k++ {
		if a := Price(m, router.Config{Arch: router.ArchBuffered, Radix: k}); a.StorageMm2 > a.WireMm2 {
			return k
		}
	}
	return -1
}

// Fig15 reproduces Figure 15: storage area versus wire area of the
// fully buffered crossbar in the 0.10 um model as radix grows; storage
// overtakes wire area near radix 50.
func Fig15(Scale) (*stats.Table, error) {
	m := area.Default()
	t := &stats.Table{
		Title:  "Figure 15: fully buffered crossbar area, storage vs wire (0.10um model)",
		XLabel: "radix",
		YLabel: "area (mm^2)",
	}
	st := &stats.Series{Name: "storage-area"}
	wr := &stats.Series{Name: "wire-area"}
	for _, k := range []int{8, 16, 32, 48, 64, 96, 128, 192, 256} {
		a := Price(m, router.Config{Arch: router.ArchBuffered, Radix: k})
		st.Add(float64(k), a.StorageMm2, false)
		wr.Add(float64(k), a.WireMm2, false)
	}
	t.AddSeries(st)
	t.AddSeries(wr)
	t.AddScalar("storage>wire crossover radix", float64(Crossover(m)), "")
	t.AddNote("paper: for a radix greater than 50, storage area exceeds wire area")
	return t, nil
}

// Fig17d reproduces Figure 17(d): total storage bits versus radix for
// the fully buffered crossbar and hierarchical crossbars with subswitch
// sizes 4..32, plus the headline 40%% saving at k=64, p=8.
func Fig17d(Scale) (*stats.Table, error) {
	m := area.Default()
	t := &stats.Table{
		Title:  "Figure 17(d): storage bits vs radix",
		XLabel: "radix",
		YLabel: "storage (bits)",
	}
	radices := []int{32, 64, 96, 128, 192, 256}
	fb := &stats.Series{Name: "fully-buffered"}
	for _, k := range radices {
		fb.Add(float64(k), Price(m, router.Config{Arch: router.ArchBuffered, Radix: k}).Bits, false)
	}
	t.AddSeries(fb)
	for _, p := range []int{4, 8, 16, 32} {
		s := &stats.Series{Name: "subswitch-" + strconv.Itoa(p)}
		for _, k := range radices {
			if k%p != 0 {
				continue
			}
			s.Add(float64(k), Price(m, router.Config{Arch: router.ArchHierarchical, Radix: k, SubSize: p}).Bits, false)
		}
		t.AddSeries(s)
	}
	fb64, h64 := Price(m, router.Config{Arch: router.ArchBuffered, Radix: 64}), Price(m, router.Config{Arch: router.ArchHierarchical, Radix: 64, SubSize: 8})
	t.AddScalar("storage-bit savings k=64 p=8", 1-h64.Bits/fb64.Bits, "fraction")
	t.AddScalar("total-area savings k=64 p=8", 1-h64.TotalMm2()/fb64.TotalMm2(), "fraction")
	t.AddNote("paper: for k=64 and p=8 the hierarchical crossbar takes 40%% less area than a fully-buffered crossbar (total area: buffers shrink 2/p, wire area is shared)")
	return t, nil
}
