package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"syscall"
	"time"

	"highradix/internal/arb"
	"highradix/internal/cache"
	"highradix/internal/experiments"
	"highradix/internal/flit"
	"highradix/internal/network"
	"highradix/internal/network/shard"
	"highradix/internal/router"
	"highradix/internal/serve"
	"highradix/internal/sim"
	"highradix/internal/stats"
	"highradix/internal/sweep"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// ledger is the per-layer pass of a traced run: one probe per layer,
// each timing calls into the layer's public functions from outside.
// The probes do not depend on the workload being traced, so every
// traced run reports every per-layer metric.
type ledger struct {
	e     env
	tr    *tracer
	m     map[string]float64
	fails []string
}

// sink keeps probe results alive so the compiler cannot drop the
// measured calls.
var sink int

// iters scales a probe's iteration count with env.scale.
func (l *ledger) iters(n int) int {
	if v := int(float64(n) * l.e.scale); v > 16 {
		return v
	}
	return 16
}

// warm is the probes' warm-up length: warmFloor cycles, shortened with
// env.scale.
func (l *ledger) warm() int64 { return l.e.warm(0) }

func (l *ledger) fail(format string, args ...any) {
	l.fails = append(l.fails, fmt.Sprintf(format, args...))
}

// per runs fn n times under one span and returns nanoseconds per call.
func (l *ledger) per(layer, name string, n int, fn func(i int)) float64 {
	span := l.tr.begin(layer, name, -1, 0, 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	l.tr.end(span)
	return float64(d.Nanoseconds()) / float64(n)
}

func runLedger(e env, tr *tracer) *ledger {
	l := &ledger{e: e, tr: tr, m: map[string]float64{}}
	for _, probe := range []func(){
		l.arb, l.sim, l.traffic, l.router, l.testbench, l.network, l.shard,
		l.sweep, l.cache, l.experiments, l.serve,
	} {
		if err := protect(func() error { probe(); return nil }); err != nil {
			l.fail("%v", err)
		}
	}
	return l
}

// requestVectors returns 256 seeded request vectors over n lines with
// each line requesting with probability density.
func requestVectors(rng *sim.RNG, n int, density float64) []arb.BitVec {
	vs := make([]arb.BitVec, 256)
	for i := range vs {
		vs[i] = arb.MakeBitVec(n)
		for j := 0; j < n; j++ {
			if rng.Bernoulli(density) {
				vs[i].Set(j)
			}
		}
	}
	return vs
}

func (l *ledger) arb() {
	rng := sim.NewRNG(l.e.seed ^ 0xa4b)
	n := l.iters(400000)
	var arbitrations, grants int64
	bits := func(name string, size int, a arb.BitArbiter) {
		vs := requestVectors(rng, size, 0.25)
		g := 0
		l.m[name] = l.per("arb", name, n, func(i int) {
			if a.ArbitrateBits(&vs[i&255]) >= 0 {
				g++
			}
		})
		if size == 64 {
			arbitrations += int64(n)
			grants += int64(g)
		}
	}
	bits("arb.roundrobin_ns.n64", 64, arb.NewRoundRobin(64))
	bits("arb.roundrobin_ns.n256", 256, arb.NewRoundRobin(256))
	bits("arb.localglobal_ns.n64", 64, arb.NewLocalGlobal(64, 8))
	bits("arb.localglobal_ns.n256", 256, arb.NewLocalGlobal(256, 16))
	bits("arb.tree_ns.n256", 256, arb.NewTree(256, 8))

	// One rotor per crosspoint of a radix-64 crossbar, each arbitrating
	// a 4-VC request word.
	bank := arb.NewRotorBank(64*64, 4)
	words := make([]uint64, 256)
	for i := range words {
		words[i] = rng.Uint64() & rng.Uint64() & 0xf // each VC requests with probability 1/4
	}
	g := 0
	l.m["arb.rotorbank_ns.n64"] = l.per("arb", "rotorbank", n, func(i int) {
		if bank.Arbitrate(i&4095, words[i&255]) >= 0 {
			g++
		}
	})
	arbitrations += int64(n)
	grants += int64(g)

	dual := arb.NewDual(64, func(n int) arb.Arbiter { return arb.NewRoundRobin(n) })
	nonspec, spec := requestVectors(rng, 64, 0.125), requestVectors(rng, 64, 0.125)
	g = 0
	l.m["arb.dual_ns.n64"] = l.per("arb", "dual", n, func(i int) {
		if w, _ := dual.ArbitrateBits(&nonspec[i&255], &spec[(i+1)&255]); w >= 0 {
			g++
		}
	})
	arbitrations += int64(n)
	grants += int64(g)

	// iSLIP: one single-iteration matching per call; every output's
	// grant phase is one arbitration, every matched pair one grant, so
	// this is where grant_share falls below one.
	for _, size := range []int{64, 256} {
		s := arb.NewISLIP(size)
		sets := make([][]arb.BitVec, 8)
		for i := range sets {
			sets[i] = requestVectors(rng, size, 0.25)[:size]
		}
		outEl, all := arb.MakeBitVec(size), arb.MakeBitVec(size)
		for j := 0; j < size; j++ {
			all.Set(j)
		}
		matched := 0
		calls := l.iters(400000 / size)
		l.m[fmt.Sprintf("arb.islip_match_ns.n%d", size)] = l.per("arb", "islip", calls, func(i int) {
			outEl.CopyOr(&all, &all)
			matched += s.Match(1, sets[i&7], &outEl, func(in, out int) {})
		})
		if size == 64 {
			arbitrations += int64(calls * size)
			grants += int64(matched)
		}
	}
	l.m["arb.grant_share"] = float64(grants) / float64(arbitrations)
	l.tr.count("arb.arbitrations", arbitrations)
	l.tr.count("arb.grants", grants)
}

func (l *ledger) sim() {
	rng := sim.NewRNG(l.e.seed ^ 0x51)
	// The steady schedule+pop cycle of cmd/hrbench's wheel benchmark at
	// 8192 pending events.
	w := sim.NewWheel(4096)
	var now int64
	for i := 0; i < 8192; i++ {
		w.Schedule(now+1+int64(rng.Intn(16384)), int32(i))
	}
	l.m["sim.wheel_ns.p8192"] = l.per("sim", "wheel", l.iters(300000), func(int) {
		next, _ := w.NextAt()
		now = next
		w.PopDue(now, func(id int32) {
			w.Schedule(now+1+int64(rng.Intn(16384)), id)
		})
	})
	q := sim.NewQueue[int](16)
	l.m["sim.queue_pushpop_ns"] = l.per("sim", "queue", l.iters(4000000), func(i int) {
		q.MustPush(i)
		sink += q.MustPop()
	})
	l.m["sim.rng_bernoulli_ns"] = l.per("sim", "rng", l.iters(4000000), func(int) {
		if rng.Bernoulli(0.125) {
			sink++
		}
	})
}

func (l *ledger) traffic() {
	rng := sim.NewRNG(l.e.seed ^ 0x7ff)
	n := l.iters(2000000)
	uni := traffic.NewUniform(64)
	l.m["traffic.dest_ns.uniform"] = l.per("traffic", "uniform", n, func(i int) { sink += uni.Dest(i&63, rng) })
	hot := traffic.NewHotspot(64, 8)
	l.m["traffic.dest_ns.hotspot"] = l.per("traffic", "hotspot", n, func(i int) { sink += hot.Dest(i&63, rng) })
	gap := traffic.NewBernoulliGap(0.01)
	l.m["traffic.gap_next_ns"] = l.per("traffic", "gap", n, func(i int) { sink += int(gap.NextInject(int64(i), rng) & 1) })
}

// dense is the harness-owned stepping loop: Bernoulli sources with
// uniform single-flit packets in front of one router, stepped every
// cycle. It exists so Step can be timed alone, which testbench.Run
// does not allow from outside.
type dense struct {
	flits  int64 // ejected during the timed cycles
	step   time.Duration
	grants int64
	nacks  int64
}

func (l *ledger) dense(name string, cfg router.Config, load float64, warm, cycles int64, observe bool) dense {
	var d dense
	if observe {
		cfg.Observer = router.ObserverFunc(func(ev router.Event) {
			switch ev.Kind {
			case router.EvGrant:
				d.grants++
			case router.EvNack:
				d.nacks++
			}
		})
	}
	r, err := router.New(cfg)
	if err != nil {
		l.fail("%s: %v", name, err)
		return d
	}
	c := r.Config()
	k, v, st := c.Radix, c.VCs, int64(c.STCycles)
	rate := load / float64(st)
	master := sim.NewRNG(l.e.seed ^ 0xd15e)
	rngs := make([]*sim.RNG, k)
	queues := make([]*sim.Queue[*flit.Flit], k)
	injFree := make([]int64, k)
	vcPtr := make([]int, k)
	for i := range rngs {
		rngs[i] = master.Split()
		queues[i] = sim.NewQueue[*flit.Flit](0)
	}
	fl := flit.NewFreeList()
	var id uint64
	var accepts int64
	span := l.tr.begin("bench", "dense "+name, -1, 0, 0)
	for now := int64(0); now < warm+cycles; now++ {
		if now == warm {
			d.grants, d.nacks = 0, 0
		}
		for i := 0; i < k; i++ {
			if rngs[i].Bernoulli(rate) {
				id++
				queues[i].MustPush(fl.MakePacket(id, i, rngs[i].Intn(k), 0, 1, now, false)[0])
			}
			if injFree[i] > now {
				continue
			}
			f, ok := queues[i].Peek()
			if !ok {
				continue
			}
			for t := 0; t < v; t++ {
				vc := (vcPtr[i] + t) % v
				if r.CanAccept(i, vc) {
					queues[i].MustPop()
					f.VC = vc
					r.Accept(now, f)
					accepts++
					injFree[i] = now + st
					vcPtr[i] = (vc + 1) % v
					break
				}
			}
		}
		s0 := time.Now()
		r.Step(now)
		if now >= warm {
			d.step += time.Since(s0)
		}
		for _, f := range r.Ejected() {
			if now >= warm {
				d.flits++
			}
			fl.Put(f)
		}
	}
	l.tr.end(span)
	if span >= 0 {
		l.tr.aggregate("router", "Step", span, cycles, d.step)
	}
	l.tr.count("router.accepts", accepts)
	l.tr.count("router.ejected", d.flits)
	return d
}

func (l *ledger) router() {
	warm := l.warm()
	var stepK64, runK64 time.Duration
	for _, a := range router.Registered() {
		cfg := router.Config{Arch: a, Radix: 64, VCs: 4}
		cycles := int64(l.iters(6000))
		d := l.dense(a.String()+" k64", cfg, 0.5, warm, cycles, false)
		if d.flits > 0 {
			l.m[fmt.Sprintf("router.step_ns_per_flit.%s.k64", a)] = float64(d.step.Nanoseconds()) / float64(d.flits)
		}
		stepK64 += d.step
		// The same cycles through testbench.Run: what the driver adds on
		// top of Step.
		var start time.Time
		o := testbench.Options{Router: cfg, Load: 0.5, PktLen: 1, WarmupCycles: warm, MeasureCycles: cycles,
			DrainCycles: 1, Seed: l.e.seed, OnMeasureStart: func() { start = time.Now() }}
		span := l.tr.begin("testbench", "Run "+a.String()+" k64", -1, 0, 0)
		_, err := testbench.Run(o)
		runK64 += time.Since(start)
		l.tr.end(span)
		if err != nil {
			l.fail("testbench.Run %s: %v", a, err)
		}
		n := l.dense(a.String()+" k64 load 0.9 observed", cfg, 0.9, warm, int64(l.iters(3000)), true)
		if n.grants+n.nacks > 0 {
			l.m[fmt.Sprintf("router.nack_share.%s.k64", a)] = float64(n.nacks) / float64(n.grants+n.nacks)
		}
	}
	if runK64 > 0 {
		// An approximation: the dense loop's sources are simpler than
		// testbench's, so the two runs do not step identical states.
		l.m["testbench.driver_share.k64"] = 1 - float64(stepK64)/float64(runK64)
	}
	for _, a := range scaleArchs() {
		cfg := router.Config{Arch: a, Radix: 256, VCs: 4}
		span := l.tr.begin("router", "New "+a.String()+" k256", -1, 0, 0)
		t0 := time.Now()
		_, err := router.New(cfg)
		l.m[fmt.Sprintf("router.new_ms.%s.k256", a)] = float64(time.Since(t0).Nanoseconds()) / 1e6
		l.tr.end(span)
		if err != nil {
			l.fail("router.New %s k256: %v", a, err)
			continue
		}
		d := l.dense(a.String()+" k256", cfg, 0.5, warm, int64(l.iters(1200)), false)
		if d.flits > 0 {
			l.m[fmt.Sprintf("router.step_ns_per_flit.%s.k256", a)] = float64(d.step.Nanoseconds()) / float64(d.flits)
		}
	}
}

func (l *ledger) testbench() {
	run := func(name string, o testbench.Options) (time.Duration, testbench.Result) {
		var start time.Time
		o.OnMeasureStart = func() { start = time.Now() }
		span := l.tr.begin("testbench", "Run "+name, -1, 0, 0)
		res, err := testbench.Run(o)
		d := time.Since(start)
		l.tr.end(span)
		if err != nil {
			l.fail("testbench.Run %s: %v", name, err)
		}
		return d, res
	}
	base := testbench.Options{Router: router.Config{Arch: router.ArchHierarchical, Radix: 64}, PktLen: 1,
		WarmupCycles: l.warm(), Seed: l.e.seed}
	for _, ll := range lowLoads {
		for _, mode := range []traffic.InjMode{traffic.InjPerCycle, traffic.InjGap} {
			o := base
			o.Load, o.Injection = ll.load, mode
			o.MeasureCycles = int64(l.iters(int(ll.perCycle / 16)))
			if mode == traffic.InjGap {
				o.MeasureCycles = int64(l.iters(int(ll.gapCyc / 16)))
			}
			name := fmt.Sprintf("testbench.ns_per_cycle.%s.%s", mode, ll.tag)
			d, res := run(name, o)
			if c := res.Cycles - o.WarmupCycles; c > 0 {
				l.m[name] = float64(d.Nanoseconds()) / float64(c)
			}
		}
	}
	o := base
	o.Load, o.Injection, o.MeasureCycles = 0.001, traffic.InjGap, int64(l.iters(125000))
	ff, a := run("gap l001 fast-forward", o)
	o.NoFastForward = true
	denseWall, b := run("gap l001 dense", o)
	if a != b {
		l.fail("testbench: NoFastForward changed the result of a gap run")
	}
	if ff > 0 {
		l.m["testbench.ff_speedup.gap.l001"] = float64(denseWall) / float64(ff)
	}
	o = base
	o.Load = 0.5
	l.m["testbench.cachekey_ns"] = l.per("testbench", "CacheKey", l.iters(20000), func(int) {
		k, _ := o.CacheKey()
		sink += len(k)
	})
}

// netDense is the harness-owned network loop: the serial driver's
// cycle (generate, inject, step, collect) with each call timed.
func (l *ledger) netDense(name string, o network.Options) (stepNsPerFlitHop, genInjectShare float64) {
	o = o.WithDefaults()
	topo, err := o.Topology()
	if err != nil {
		l.fail("%s: %v", name, err)
		return 0, 0
	}
	nw := network.NewNetwork(topo, o.RouteSeed())
	src := network.NewSources(topo, o.SourceOpts(topo), 0, topo.Routers())
	var gen, step time.Duration
	var hops int64
	span := l.tr.begin("bench", "dense net "+name, -1, 0, 0)
	for now := int64(0); now < o.WarmupCycles+o.MeasureCycles; now++ {
		timed := now >= o.WarmupCycles
		t0 := time.Now()
		src.Generate(now, false)
		src.InjectAll(now, nw, nil)
		t1 := time.Now()
		nw.Step(now)
		t2 := time.Now()
		for _, f := range nw.Ejected() {
			if timed {
				hops += int64(f.Hops)
			}
			src.Recycle(f)
		}
		if timed {
			gen += t1.Sub(t0)
			step += t2.Sub(t1)
		}
	}
	l.tr.end(span)
	if span >= 0 {
		l.tr.aggregate("network", "Sources.Generate+InjectAll", span, o.MeasureCycles, gen)
		l.tr.aggregate("network", "Network.Step", span, o.MeasureCycles, step)
	}
	l.tr.count("network.flit_hops", hops)
	if hops == 0 || gen+step == 0 {
		return 0, 0
	}
	return float64(step.Nanoseconds()) / float64(hops), float64(gen) / float64(gen+step)
}

func (l *ledger) network() {
	cases := netCases(l.e)
	for i, c := range cases {
		c.o.WarmupCycles = l.warm()
		c.o.MeasureCycles = int64(l.iters([]int{300, 100}[i]))
		ns, share := l.netDense(c.name, c.o)
		l.m["network.step_ns_per_flit_hop."+c.name] = ns
		if c.name == "k64d2" {
			l.m["network.generate_inject_share.k64d2"] = share
		}
	}
	k16 := cases[1].o
	span := l.tr.begin("network", "New k16d3", -1, 0, 0)
	t0 := time.Now()
	topo, err := k16.Topology()
	if err == nil {
		nw := network.NewNetwork(topo, k16.RouteSeed())
		src := network.NewSources(topo, k16.SourceOpts(topo), 0, topo.Routers())
		sink += nw.Terminals() + int(src.Backlog())
	}
	l.m["network.new_ms.k16d3"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	l.tr.end(span)
	if err != nil {
		l.fail("network: %v", err)
		return
	}
	low := network.Options{Net: network.Config{Radix: 16, Digits: 2}, Load: 0.02, PktLen: 1,
		WarmupCycles: l.warm(), MeasureCycles: int64(l.iters(20000)), Seed: l.e.seed}
	span = l.tr.begin("network", "Run lowload", -1, 0, 0)
	t0 = time.Now()
	res, err := network.Run(low)
	d := time.Since(t0)
	l.tr.end(span)
	if err != nil {
		l.fail("network.Run lowload: %v", err)
	} else {
		l.m["network.ns_per_cycle.lowload"] = float64(d.Nanoseconds()) / float64(res.Cycles)
	}
	k64, err := cases[0].o.Topology()
	if err != nil {
		l.fail("network: %v", err)
		return
	}
	rng := sim.NewRNG(l.e.seed ^ 0x40b)
	routers, terms := k64.Routers(), k64.Terminals()
	l.m["network.nexthop_ns"] = l.per("network", "NextHop", l.iters(2000000), func(i int) {
		p, _ := k64.NextHop(i%routers, i&63, i%terms, i&3, rng.Uint64())
		sink += p
	})
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (l *ledger) shard() {
	// Both Figure 19 networks, as net_serial and net_shard2 run them,
	// through the serial driver and the sharded one at 1 and 2 workers.
	var serial, w1, w2, cpu2 time.Duration
	for i, c := range netCases(l.e) {
		o := c.o
		o.WarmupCycles, o.MeasureCycles = l.warm(), int64(l.iters([]int{300, 100}[i]))
		time1 := func(name string, run func(network.Options) (network.Result, error)) (time.Duration, time.Duration, network.Result) {
			span := l.tr.begin("shard", name+" "+c.name, -1, 0, 0)
			c0, t0 := cpuTime(), time.Now()
			res, err := run(o)
			wall, cpu := time.Since(t0), cpuTime()-c0
			l.tr.end(span)
			if err != nil {
				l.fail("%s %s: %v", name, c.name, err)
			}
			return wall, cpu, res
		}
		ds, _, rs := time1("network.Run", network.Run)
		d1, _, r1 := time1("shard.Run w1", func(o network.Options) (network.Result, error) {
			return shard.Run(shard.Options{Options: o, Workers: 1})
		})
		d2, c2, r2 := time1("shard.Run w2", shard2)
		if rs != r1 || rs != r2 {
			l.fail("shard: sharded results differ from network.Run's on %s", c.name)
		}
		serial, w1, w2, cpu2 = serial+ds, w1+d1, w2+d2, cpu2+c2
	}
	if serial > 0 && w2 > 0 {
		l.m["shard.wall_ratio_w1"] = float64(w1) / float64(serial)
		l.m["shard.speedup_w2"] = float64(serial) / float64(w2)
		l.m["shard.cpu_per_wall_w2"] = float64(cpu2) / float64(w2)
	}
}

func (l *ledger) sweep() {
	// Three latency curves on a 2-worker pool, composed the way the
	// figure generators compose them: Gather over cases, Curve over
	// loads, one pooled testbench.Run per point.
	pool := sweep.New(2)
	loads := []float64{0.2, 0.4, 0.6, 0.8, 0.95}
	archs := []router.Arch{router.ArchLowRadix, router.ArchBaseline, router.ArchHierarchical}
	var mu sync.Mutex
	var busy time.Duration
	overshoot := 0
	curveSpan := l.tr.begin("sweep", "Gather+Curve", -1, 0, 0)
	t0 := time.Now()
	_, err := sweep.Gather(archs, func(a router.Arch) (*stats.Series, error) {
		// started and saturated are indexed like loads; a started point
		// past the first saturated one is work the curve throws away.
		started, saturated := make([]bool, len(loads)), make([]bool, len(loads))
		series, err := sweep.Curve(pool, a.String(), loads, func(load float64) (sweep.Point, error) {
			return sweep.Do(pool, func() (sweep.Point, error) {
				span := l.tr.begin("testbench", fmt.Sprintf("Run %s load %g", a, load), curveSpan, 0, 1+int(a)%2)
				s0 := time.Now()
				res, err := testbench.Run(testbench.Options{Router: router.Config{Arch: a}, Load: load,
					WarmupCycles: l.warm(), MeasureCycles: int64(l.iters(1600)), Seed: l.e.seed})
				d := time.Since(s0)
				l.tr.end(span)
				mu.Lock()
				busy += d
				for i := range loads {
					if loads[i] == load {
						started[i], saturated[i] = true, res.Saturated
					}
				}
				mu.Unlock()
				return sweep.Point{Y: res.AvgLatency, Saturated: res.Saturated}, err
			})
		})
		mu.Lock()
		past := false
		for i := range loads {
			if past && started[i] {
				overshoot++
			}
			past = past || saturated[i]
		}
		mu.Unlock()
		return series, err
	})
	wall := time.Since(t0)
	l.tr.end(curveSpan)
	if err != nil {
		l.fail("sweep: %v", err)
	}
	l.m["sweep.pool_busy_share.j2"] = float64(busy) / float64(2*wall)
	l.m["sweep.curve_overshoot_points"] = float64(overshoot)
	n := l.iters(4000)
	span := l.tr.begin("sweep", "Map", -1, 0, 0)
	t0 = time.Now()
	outs, err := sweep.Map(pool, make([]int, n), func(i int) (int, error) { return i + 1, nil })
	l.m["sweep.map_overhead_us"] = us(time.Since(t0)) / float64(n)
	l.tr.end(span)
	if err != nil || len(outs) != n {
		l.fail("sweep.Map: %v", err)
	}
}

func (l *ledger) cache() {
	dir, err := os.MkdirTemp(l.e.dir, "ledger-store-")
	if err != nil {
		l.fail("cache: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := cache.Open(dir)
	if err != nil {
		l.fail("cache: %v", err)
		return
	}
	n := l.iters(2000)
	keys := make([]cache.Key, 2*n)
	for i := range keys {
		keys[i] = cache.NewKey("bench/v1").Fieldf("i", "%d", i).Key()
	}
	payload := testbench.EncodeResult(testbench.Result{Load: 0.5, Packets: 1})
	l.m["cache.put_us"] = l.per("cache", "Put", n, func(i int) {
		if err := st.Put(keys[i], payload); err != nil {
			l.fail("cache.Put: %v", err)
		}
	}) / 1e3
	l.m["cache.get_hit_us"] = l.per("cache", "Get hit", n, func(i int) {
		if _, ok := st.Get(keys[i]); !ok {
			l.fail("cache.Get: stored key missed")
		}
	}) / 1e3
	l.m["cache.get_miss_us"] = l.per("cache", "Get miss", n, func(i int) {
		if _, ok := st.Get(keys[n+i]); ok {
			l.fail("cache.Get: absent key hit")
		}
	}) / 1e3
	c := st.Counters()
	l.tr.count("cache.hits", c.Hits)
	l.tr.count("cache.misses", c.Misses)
	l.tr.count("cache.puts", c.Puts)
}

func (l *ledger) experiments() {
	// The whole figure set, cold, as figs_quick runs it.
	run, err := figsPass(l.e)
	if err != nil {
		l.fail("experiments: %v", err)
		return
	}
	p := newPass(l.tr)
	tables := run(p)
	for _, entry := range experiments.Registry {
		if name := "experiments.cold_s." + entry.Name; !analyticFigures[entry.Name] {
			l.m[name] = p.extra[name]
		}
	}
	l.m[paperGapMetric], _, _ = paperGap(p, figScale(l.e, 1), tables)
	l.fails = append(l.fails, p.failures...)

	// A warm figure: one table read from the store and decoded.
	dir, err := os.MkdirTemp(l.e.dir, "ledger-figs-")
	if err != nil {
		l.fail("experiments: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := cache.Open(dir)
	if err != nil {
		l.fail("experiments: %v", err)
		return
	}
	warm := figScale(l.e, 1)
	warm.Cache = st
	t, _, err := experiments.Table("fig17a", warm)
	if err != nil {
		l.fail("experiments.Table: %v", err)
		return
	}
	l.m["experiments.warm_table_us"] = l.per("experiments", "Table warm", l.iters(2000), func(int) {
		if _, hit, err := experiments.Table("fig17a", warm); err != nil || !hit {
			l.fail("experiments.Table: warm read missed (%v)", err)
		}
	}) / 1e3
	l.stats(t)
}

// stats times the table codec and renderers on the fig17a table the
// experiments probe generated.
func (l *ledger) stats(t *stats.Table) {
	n := l.iters(2000)
	var enc []byte
	l.m["stats.encode_us"] = l.per("stats", "EncodeTable", n, func(int) { enc = stats.EncodeTable(t) }) / 1e3
	l.m["stats.decode_us"] = l.per("stats", "DecodeTable", n, func(int) {
		if _, err := stats.DecodeTable(enc); err != nil {
			l.fail("stats.DecodeTable: %v", err)
		}
	}) / 1e3
	l.m["stats.render_text_us"] = l.per("stats", "String", n, func(int) { sink += len(t.String()) }) / 1e3
	l.m["stats.render_json_us"] = l.per("stats", "JSON", n, func(int) {
		b, err := t.JSON()
		if err != nil {
			l.fail("stats.JSON: %v", err)
		}
		sink += len(b)
	}) / 1e3
	sample := stats.NewSample(8192)
	l.m["stats.sample_add_ns"] = l.per("stats", "Sample.Add", l.iters(4000000), func(i int) { sample.Add(float64(i & 1023)) })
}

func (l *ledger) serve() {
	// A short serve_mix pass supplies the latencies only a socket shows.
	e := l.e
	run, err := servePass(e, workScale, 0.25)
	if err != nil {
		l.fail("serve: %v", err)
		return
	}
	p := newPass(l.tr)
	run(p)
	l.fails = append(l.fails, p.failures...)
	for _, name := range []string{"serve.warm_p99_us", "serve.read_p99_during_cold_us", "serve.cold_point_ms_p50"} {
		l.m[name] = p.extra[name]
	}

	// Direct ServeHTTP calls: the handler stack without net/http's
	// connection handling.
	dir, err := os.MkdirTemp(l.e.dir, "ledger-serve-store-")
	if err != nil {
		l.fail("serve: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := cache.Open(dir)
	if err != nil {
		l.fail("serve: %v", err)
		return
	}
	scale := figScale(l.e, workScale)
	scale.Cache = st
	h := serve.New(serve.Config{Scale: scale, MaxInflight: 2}).Handler()
	do := func(path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			l.fail("serve: GET %s: status %d", path, rec.Code)
		}
	}
	point := pointPath(router.ArchHierarchical, 0.35)
	do("/figures/fig9")
	do(point)
	l.m["serve.handler_figure_memo_ns"] = l.per("serve", "ServeHTTP figure memo", l.iters(50000), func(int) { do("/figures/fig9") })
	l.m["serve.handler_point_hit_us"] = l.per("serve", "ServeHTTP point hit", l.iters(5000), func(int) { do(point) }) / 1e3
	l.m["serve.metrics_endpoint_us"] = l.per("serve", "ServeHTTP metrics", l.iters(20000), func(int) { do("/metrics") }) / 1e3
}
