package network

import (
	"highradix/internal/arb"
	"highradix/internal/flit"
	"highradix/internal/sim"
	"highradix/internal/traffic"
)

// SourceOpts parameterizes a Sources bank.
type SourceOpts struct {
	// Seed is the run seed; each terminal derives a private stream from
	// it (termSeed), so draws are independent of terminal visit order.
	Seed uint64
	// Rate is the per-terminal flit injection probability per cycle
	// (Load / (SerCycles * PktLen)).
	Rate float64
	// PktLen is the packet length in flits.
	PktLen int
	// Pattern supplies destination terminals. It is read concurrently
	// by shard workers and must be stateless, which every pattern in
	// internal/traffic is (their only state is the RNG parameter).
	Pattern traffic.Pattern
	// Injection selects per-cycle Bernoulli or gap sampling.
	Injection traffic.InjMode
}

// Sources owns the generation and injection state of the terminals
// whose entry router lies in one engine's range. The serial run
// uses a single bank over all terminals; each shard worker owns the
// bank for its routers. Because every per-terminal decision (packet
// id, destination, inter-arrival gap) comes from that terminal's
// private stream, a partitioned set of banks reproduces the serial
// bank's traffic exactly.
type Sources struct {
	topo  Topology
	opts  SourceOpts
	owned []int // ascending terminal ids

	rngs    []sim.RNG
	srcQ    []sim.Queue[*flit.Flit]
	injFree []int64
	vcPtr   []int
	curVC   []int
	seq     []uint32

	fl      *flit.FreeList
	act     arb.BitVec
	gap     bool
	wheel   *sim.Wheel
	gapProc *traffic.BernoulliGap

	injVCs int
	ser    int64

	genFlits        int64
	injectedLabeled int64
	backlog         int64
}

// NewSources builds the bank for terminals entering routers [lo, hi).
func NewSources(topo Topology, o SourceOpts, lo, hi int) *Sources {
	n := topo.Terminals()
	s := &Sources{
		topo: topo, opts: o,
		rngs:    make([]sim.RNG, n),
		srcQ:    make([]sim.Queue[*flit.Flit], n),
		injFree: make([]int64, n),
		vcPtr:   make([]int, n),
		curVC:   make([]int, n),
		seq:     make([]uint32, n),
		fl:      flit.NewFreeList(),
		act:     arb.MakeBitVec(n),
		gap:     o.Injection == traffic.InjGap,
		injVCs:  topo.InjectVCs(),
		ser:     int64(topo.SerCycles()),
	}
	for t := 0; t < n; t++ {
		er, _ := topo.Entry(t)
		if er < lo || er >= hi {
			continue
		}
		s.owned = append(s.owned, t)
		s.rngs[t].Seed(termSeed(o.Seed, t))
		s.srcQ[t] = sim.MakeQueue[*flit.Flit](0)
		s.curVC[t] = -1
	}
	if s.gap {
		s.wheel = traffic.NewGapWheel(o.Rate)
		s.gapProc = traffic.NewBernoulliGap(o.Rate)
		for _, t := range s.owned {
			if at := s.gapProc.NextInject(0, &s.rngs[t]); at < sim.NoWake {
				s.wheel.Schedule(at, int32(t))
			}
		}
	}
	return s
}

// spawn queues one packet at terminal t.
func (s *Sources) spawn(now int64, t int, measuring bool) {
	dst := s.opts.Pattern.Dest(t, &s.rngs[t])
	s.seq[t]++
	// Structured ids — terminal in the high word, per-terminal sequence
	// below — are unique and assigned without any shared counter, so id
	// assignment commutes across shards (and stays nonzero, preserving
	// the link-owner free sentinel).
	id := uint64(t+1)<<32 | uint64(s.seq[t])
	for _, f := range s.fl.MakePacket(id, t, dst, 0, s.opts.PktLen, now, measuring) {
		s.srcQ[t].MustPush(f)
	}
	s.genFlits += int64(s.opts.PktLen)
	s.backlog += int64(s.opts.PktLen)
	s.act.Set(t)
	if measuring {
		s.injectedLabeled++
	}
}

// Generate draws this cycle's new packets: one Bernoulli per owned
// terminal in per-cycle mode, or the wheel's due terminals in gap
// mode. The caller must invoke it for every generating cycle in
// per-cycle mode (no draw may be skipped).
func (s *Sources) Generate(now int64, measuring bool) {
	if s.gap {
		s.wheel.PopDue(now, func(id int32) {
			t := int(id)
			s.spawn(now, t, measuring)
			if at := s.gapProc.NextInject(now+1, &s.rngs[t]); at < sim.NoWake {
				s.wheel.Schedule(at, id)
			}
		})
		return
	}
	for _, t := range s.owned {
		if s.rngs[t].Bernoulli(s.opts.Rate) {
			s.spawn(now, t, measuring)
		}
	}
}

// InjectAll moves queued flits into the network, respecting terminal
// serialization and per-packet VC continuity (wormhole: all flits of a
// packet use the VC chosen at its head). onInject, when non-nil, sees
// every injected flit (hook support).
func (s *Sources) InjectAll(now int64, nw *Network, onInject func(*flit.Flit)) {
	for t := s.act.Next(0); t >= 0; t = s.act.Next(t + 1) {
		if s.injFree[t] > now {
			continue
		}
		f, ok := s.srcQ[t].Peek()
		if !ok {
			continue
		}
		vc := s.curVC[t]
		if f.Head {
			vc = -1
			for i := 0; i < s.injVCs; i++ {
				c := (s.vcPtr[t] + i) % s.injVCs
				if nw.CanInject(t, c) {
					vc = c
					break
				}
			}
			if vc < 0 {
				continue
			}
			s.curVC[t] = vc
		} else if !nw.CanInject(t, vc) {
			continue
		}
		s.srcQ[t].MustPop()
		s.backlog--
		if s.srcQ[t].Len() == 0 {
			s.act.Clear(t)
		}
		nw.Inject(now, f, vc)
		if onInject != nil {
			onInject(f)
		}
		s.injFree[t] = now + s.ser
		if f.Tail {
			s.vcPtr[t] = (vc + 1) % s.injVCs
			s.curVC[t] = -1
		}
	}
}

// Recycle returns a dead (delivered and fully read) flit to this
// bank's free list. Flits may be recycled by any bank — identity is
// unobservable — but a bank is single-threaded: only its owning worker
// may call this.
func (s *Sources) Recycle(f *flit.Flit) { s.fl.Put(f) }

// Backlog returns the flits queued at sources, not yet injected.
func (s *Sources) Backlog() int64 { return s.backlog }

// GenFlits returns the total flits generated.
func (s *Sources) GenFlits() int64 { return s.genFlits }

// InjectedLabeled returns the labeled (measurement-window) packets
// generated.
func (s *Sources) InjectedLabeled() int64 { return s.injectedLabeled }

// NextGen returns the earliest cycle after now at which a live bank can
// generate: now+1 in per-cycle mode (every terminal draws every
// cycle), the wheel's next scheduled injection in gap mode — sim.NoWake
// when nothing is scheduled.
func (s *Sources) NextGen(now int64) int64 {
	if s.wheel == nil {
		return now + 1
	}
	if at, ok := s.wheel.NextAt(); ok {
		return at
	}
	return sim.NoWake
}
