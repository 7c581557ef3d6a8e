package main

import (
	"fmt"

	"highradix/internal/experiments"
	"highradix/internal/router"
)

// metricDecl declares one metric. BENCHMARK.json at the module root
// carries the same names, units, directions and bounds (the smoke test
// keeps the two equal); its schema has no room for On and Moves, which
// live only here and in the README.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative change that counts as a regression
	// On, end-to-end only, names the workloads ISSUE 11 defined the
	// metric for; nil means all. Every run reports every metric, because
	// the benchmark contract says so, but elsewhere the value restates
	// wall_s in another unit and -selfcheck does not gate it twice.
	On    []string
	Moves string // per-layer only: the end-to-end metric and workload it should move
}

func (d metricDecl) on(workload string) bool {
	for _, w := range d.On {
		if w == workload {
			return true
		}
	}
	return d.On == nil
}

// endToEnd lists the metrics every untraced run reports. Host time
// throughout.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ns_per_flit_hop", Unit: "ns", Better: "lower", Bound: 0.25,
		On: []string{"router_k64", "router_scale", "net_serial", "net_shard2"}},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher", Bound: 0.25,
		On: []string{"router_lowload", "net_serial", "net_shard2"}},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "req/s", Better: "higher", Bound: 0.25, On: []string{"serve_mix"}},
	{Name: "warm_p50_us", Unit: "us", Better: "lower", Bound: 0.25, On: []string{"serve_mix"}},
	{Name: "cold_s", Unit: "s", Better: "lower", Bound: 0.25, On: []string{"serve_mix"}},
}

// analyticFigures generate from closed forms; they have no cold cost
// worth a metric.
var analyticFigures = map[string]bool{"fig1": true, "fig2": true, "fig3": true, "fig15": true, "fig17d": true}

func figureNames() []string {
	names := make([]string, len(experiments.Registry))
	for i, e := range experiments.Registry {
		names[i] = e.Name
	}
	return names
}

// perLayer lists the metrics every traced run reports.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	var ds []metricDecl
	add := func(moves, unit, better string, names ...string) {
		for _, n := range names {
			ds = append(ds, metricDecl{Name: n, Unit: unit, Better: better, Moves: moves})
		}
	}
	stepK64 := "ns_per_flit_hop (router_k64)"
	add("ns_per_flit_hop (router_k64, router_scale)", "ns", "lower",
		"arb.roundrobin_ns.n64", "arb.roundrobin_ns.n256", "arb.localglobal_ns.n64", "arb.localglobal_ns.n256",
		"arb.tree_ns.n256", "arb.rotorbank_ns.n64", "arb.islip_match_ns.n64", "arb.islip_match_ns.n256", "arb.dual_ns.n64")
	add("ns_per_flit_hop (router_k64, router_scale)", "count", "higher", "arb.grant_share")
	add("sim_cycles_per_s (router_lowload)", "ns", "lower",
		"sim.wheel_ns.p8192", "sim.queue_pushpop_ns", "sim.rng_bernoulli_ns",
		"traffic.dest_ns.uniform", "traffic.dest_ns.hotspot", "traffic.gap_next_ns")
	for _, a := range router.Registered() {
		add(stepK64, "ns", "lower", fmt.Sprintf("router.step_ns_per_flit.%s.k64", a))
		add(stepK64, "count", "lower", fmt.Sprintf("router.nack_share.%s.k64", a))
	}
	for _, a := range scaleArchs() {
		add("ns_per_flit_hop (router_scale)", "ns", "lower", fmt.Sprintf("router.step_ns_per_flit.%s.k256", a))
		add("setup_s (router_scale)", "ms", "lower", fmt.Sprintf("router.new_ms.%s.k256", a))
	}
	for _, mode := range []string{"percycle", "gap"} {
		for _, l := range lowLoads {
			add("sim_cycles_per_s (router_lowload)", "ns", "lower", fmt.Sprintf("testbench.ns_per_cycle.%s.%s", mode, l.tag))
		}
	}
	add("sim_cycles_per_s (router_lowload)", "ratio", "higher", "testbench.ff_speedup.gap.l001")
	add(stepK64, "share", "lower", "testbench.driver_share.k64")
	add("cold_s (serve_mix)", "ns", "lower", "testbench.cachekey_ns")
	add("ns_per_flit_hop (net_serial, net_shard2)", "ns", "lower",
		"network.step_ns_per_flit_hop.k64d2", "network.step_ns_per_flit_hop.k16d3")
	add("ns_per_flit_hop (net_serial, net_shard2)", "share", "lower", "network.generate_inject_share.k64d2")
	add("wall_s (net_serial, net_shard2)", "ms", "lower", "network.new_ms.k16d3")
	add("sim_cycles_per_s (net_serial)", "ns", "lower", "network.ns_per_cycle.lowload", "network.nexthop_ns")
	add("wall_s (net_shard2); no change on net_serial", "ratio", "lower", "shard.wall_ratio_w1")
	add("wall_s (net_shard2); no change on net_serial", "ratio", "higher", "shard.speedup_w2", "shard.cpu_per_wall_w2")
	add("wall_s (figs_quick)", "share", "higher", "sweep.pool_busy_share.j2")
	add("wall_s (figs_quick)", "count", "lower", "sweep.curve_overshoot_points")
	add("wall_s (figs_quick)", "us", "lower", "sweep.map_overhead_us")
	add("cold_s, req_per_s (serve_mix)", "us", "lower", "cache.put_us", "cache.get_hit_us", "cache.get_miss_us")
	add("cold_s (serve_mix); wall_s (figs_quick) marginally", "us", "lower",
		"stats.encode_us", "stats.decode_us", "stats.render_text_us", "stats.render_json_us")
	add("wall_s (figs_quick) marginally", "ns", "lower", "stats.sample_add_ns")
	for _, name := range figureNames() {
		if !analyticFigures[name] {
			add("wall_s (figs_quick)", "s", "lower", "experiments.cold_s."+name)
		}
	}
	add("wall_s (figs_quick)", "us", "lower", "experiments.warm_table_us")
	add("none: simulated accuracy, must not move under a host-time change", "pp", "lower", paperGapMetric)
	add("warm_p50_us, req_per_s (serve_mix)", "ns", "lower", "serve.handler_figure_memo_ns")
	add("warm_p50_us, req_per_s (serve_mix)", "us", "lower",
		"serve.handler_point_hit_us", "serve.warm_p99_us", "serve.read_p99_during_cold_us", "serve.metrics_endpoint_us")
	add("cold_s (serve_mix)", "ms", "lower", "serve.cold_point_ms_p50")
	add("none: the cost of the spans themselves on the traced workload", "%", "lower", overheadMetric)
	return ds
}
