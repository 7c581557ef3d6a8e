package check_test

import (
	"fmt"
	"testing"

	"highradix/internal/check"
	"highradix/internal/flit"
	"highradix/internal/router"
	"highradix/internal/sim"
)

// torture drives one architecture with an adversarial generator: the
// traffic regime (hot output set, per-source rate, packet length)
// shifts every ~100 cycles, sources prefer re-using the same VC to
// maximize wormhole ownership pressure, bursts oversubscribe a few
// outputs, and ejected flits are recycled through a FreeList so the
// alias detector sees realistic pointer reuse. After the offered phase
// the router is drained to empty and the full audit runs.
// tortureOpts scales the generator's pressure. The defaults are tuned
// for radix 8: at hundreds of ports the same per-source rates offer
// far more flits than the hot outputs can drain inside the horizon, so
// the high-radix run shortens the offered phase and damps the rate.
type tortureOpts struct {
	offered   int64   // cycles of offered traffic
	horizon   int64   // extra drain budget beyond the offered phase
	rateScale float64 // multiplier on the per-source flit rate
	// maxPkts, when nonzero, caps the packets a source may have in
	// flight (injected but not fully ejected) per chosen VC. With
	// maxPkts*pktLen below the input buffer depth a wormhole owner's
	// tail always reaches its queue, which breaks the source-edge
	// circular wait (source holds an output VC mid-packet -> blocked
	// by a full input queue -> whose front head waits on an output VC
	// held by another such source). That wait is a property of
	// unrestricted single-router injection, not of the allocators
	// under test, and at hundreds of ports the adversarial VC-0
	// preference makes it near-certain to close.
	maxPkts int
}

func torture(t *testing.T, cfg router.Config, seed uint64) {
	t.Helper()
	tortureAt(t, cfg, seed, tortureOpts{offered: 2500, horizon: 30000, rateScale: 1})
}

func tortureAt(t *testing.T, cfg router.Config, seed uint64, opt tortureOpts) {
	t.Helper()
	w, err := check.Wrap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := w.Config()
	k, v := full.Radix, full.VCs
	rng := sim.NewRNG(seed)
	fl := flit.NewFreeList()

	type src struct {
		q     []*flit.Flit
		curVC int
		free  int64
	}
	srcs := make([]*src, k)
	for i := range srcs {
		srcs[i] = &src{curVC: -1}
	}
	inflight := make([][]int, k) // packets injected but not fully ejected, per (input, chosen VC)
	for i := range inflight {
		inflight[i] = make([]int, v)
	}
	pktVC := map[uint64][2]int{} // packet -> (input, chosen VC)

	// Regime state, reshuffled periodically.
	var (
		hot     []int
		hotBias float64
		rate    float64
		pktLen  int
	)
	reshuffle := func() {
		hot = hot[:0]
		for n := 1 + rng.Intn(3); len(hot) < n; {
			hot = append(hot, rng.Intn(k))
		}
		hotBias = 0.3 + 0.4*float64(rng.Intn(5))/4               // 0.3 .. 0.7
		rate = (0.05 + 0.1*float64(rng.Intn(6))) * opt.rateScale // per-source flit rate 0.05 .. 0.55, scaled
		pktLen = 1 + rng.Intn(6)
	}
	reshuffle()

	var pktID uint64
	offered := opt.offered
	horizon := offered + opt.horizon
	var genFlits, delFlits int
	for now := int64(0); now < horizon; now++ {
		if now < offered {
			if now%100 == 99 {
				reshuffle()
			}
			for i, s := range srcs {
				if !rng.Bernoulli(rate / float64(pktLen)) {
					continue
				}
				dst := rng.Intn(k)
				if rng.Bernoulli(hotBias) {
					dst = hot[rng.Intn(len(hot))]
				}
				pktID++
				s.q = append(s.q, fl.MakePacket(pktID, i, dst, 0, pktLen, now, false)...)
				genFlits += pktLen
			}
		}
		for i, s := range srcs {
			if len(s.q) == 0 || s.free > now {
				continue
			}
			f := s.q[0]
			if f.Head {
				if s.curVC < 0 {
					// Adversarial VC choice: always prefer VC 0, the
					// maximum-contention assignment, falling back only
					// when it is full.
					for c := 0; c < v; c++ {
						if w.CanAccept(i, c) && (opt.maxPkts == 0 || inflight[i][c] < opt.maxPkts) {
							s.curVC = c
							break
						}
					}
				}
				if s.curVC < 0 {
					continue
				}
			} else if !w.CanAccept(i, s.curVC) {
				continue
			}
			if f.Head && !w.CanAccept(i, s.curVC) {
				continue
			}
			s.q = s.q[1:]
			f.VC = s.curVC
			if f.Head {
				pktVC[f.PacketID] = [2]int{i, s.curVC}
				inflight[i][s.curVC]++
			}
			w.Accept(now, f)
			s.free = now + int64(full.STCycles)
			if f.Tail {
				s.curVC = -1
			}
		}
		w.Step(now)
		if err := w.Checker().Err(); err != nil {
			t.Fatalf("invariant violation at cycle %d: %v", now, err)
		}
		for _, f := range w.Ejected() {
			delFlits++
			if f.Tail {
				if e, ok := pktVC[f.PacketID]; ok {
					inflight[e[0]][e[1]]--
					delete(pktVC, f.PacketID)
				}
			}
			fl.Put(f)
		}
		if now >= offered && delFlits == genFlits {
			if err := w.Checker().Final(now); err != nil {
				t.Fatalf("final audit: %v", err)
			}
			if w.InFlight() != 0 {
				t.Fatalf("all %d flits delivered but InFlight()=%d", genFlits, w.InFlight())
			}
			return
		}
	}
	t.Fatalf("router failed to drain: %d of %d flits delivered after %d cycles "+
		"(the checker's watchdog did not fire, so flits are moving — this is a harness bug)",
		delFlits, genFlits, horizon)
}

// TestTorture runs the adversarial generator over every architecture
// at several seeds. Any conservation, ordering, ownership, credit or
// progress failure under pressure fails the test with the checker's
// certificate.
func TestTorture(t *testing.T) {
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		for _, vt := range d.Variants(8, 2) {
			cfg := vt.Config
			// Shallow intermediate buffers maximize blocking pressure.
			cfg.XpointBufDepth = 2
			for _, seed := range []uint64{1, 0x9e3779b9, 0xfeedface} {
				name, cfg, seed := vt.Name, cfg, seed
				t.Run(fmt.Sprintf("%s/seed%x", name, seed), func(t *testing.T) {
					t.Parallel()
					torture(t, cfg, seed)
				})
			}
		}
	}
}

// TestTortureHighRadix re-runs the adversarial generator at the
// paper's design radix and at 256 ports — the scale where multi-word
// request vectors, tree arbiters and the centralized schedulers take
// their wide paths — for the first variant of every architecture.
func TestTortureHighRadix(t *testing.T) {
	if testing.Short() {
		t.Skip("high-radix torture skipped in short mode")
	}
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		for _, radix := range []int{64, 256} {
			cfg := d.Variants(radix, 2)[0].Config
			name := fmt.Sprintf("%s/k%d", d.Name, radix)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				tortureAt(t, cfg, 0x9e3779b9, tortureOpts{offered: 1200, horizon: 60000, rateScale: 0.5, maxPkts: 2})
			})
		}
	}
}
