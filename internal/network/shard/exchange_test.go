package shard

import (
	"cmp"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"highradix/internal/drive"
	"highradix/internal/network"
	"highradix/internal/traffic"
)

// canonicalCmp is the comparator the epoch exchange used to sort every
// mailbox by (network.SortXmsgs, deleted with the sort): the canonical
// (At, SrcRouter, SrcPort, VC, Kind) key. A message no longer carries its
// source; the wiring gives it back — a flit left the output feeding its
// destination input, a credit left the input buffer its destination
// output leads to.
func canonicalCmp(topo network.Topology) func(a, b network.Xmsg) int {
	src := func(m *network.Xmsg) (router, port, vc int) {
		r, p, vc := m.Dst()
		l := topo.Feeder(r, p)
		if m.Kind == network.XCredit {
			l = topo.Link(r, p)
		}
		return l.Router, l.Port, vc
	}
	return func(a, b network.Xmsg) int {
		ar, ap, avc := src(&a)
		br, bp, bvc := src(&b)
		return cmp.Or(
			cmp.Compare(a.At, b.At),
			cmp.Compare(ar, br),
			cmp.Compare(ap, bp),
			cmp.Compare(avc, bvc),
			cmp.Compare(a.Kind, b.Kind),
		)
	}
}

// creditBanks reads an engine's credit counters, out[].credit then
// injCredit, which no API exposes (nothing outside the engine has any
// business with them).
func creditBanks(nw *network.Network) []int64 {
	v := reflect.ValueOf(nw).Elem()
	var banks []int64
	for out, i := v.FieldByName("out"), 0; i < out.Len(); i++ {
		banks = append(banks, out.Index(i).FieldByName("credit").Int())
	}
	for inj, i := v.FieldByName("injCredit"), 0; i < inj.Len(); i++ {
		banks = append(banks, inj.Index(i).Int())
	}
	return banks
}

// TestOutboxCanonicalByConstruction tests the argument the exchange
// rests on instead of trusting it. Nothing sorts the mailboxes any more,
// so over the determinism matrix, after every epoch: the flits a worker
// pulls (outboxes in ascending worker order, filtered to its routers)
// must already be in strictly ascending canonical order within each
// arrival cycle, which is all a calendar bucket can observe; and the
// credits it pulls must leave the same counters behind applied forward
// and reversed, through the engine's own PutRemote and Step.
func TestOutboxCanonicalByConstruction(t *testing.T) {
	modes := map[string]traffic.InjMode{"percycle": traffic.InjPerCycle, "gap": traffic.InjGap}
	for name, topo := range testTopologies(t) {
		order := canonicalCmp(topo)
		for modeName, mode := range modes {
			for _, pktLen := range []int{1, 4} {
				for _, p := range []int{1, 2, 3, 7} {
					t.Run(fmt.Sprintf("%s/%s/pkt%d/workers%d", name, modeName, pktLen, p), func(t *testing.T) {
						o := baseOpts(topo, 1, mode)
						o.PktLen = pktLen
						o = o.WithDefaults()
						c := drive.Config{Warmup: o.WarmupCycles, Measure: o.MeasureCycles, Drain: o.DrainCycles}
						s := newWorld(o, topo, c, p)
						// Two idle engines per shard take the credits only, one
						// forward and one reversed; clock is the next cycle to step.
						parts := Partition(topo.Routers(), p)
						var fwd, rev []*network.Network
						for _, rg := range parts {
							fwd = append(fwd, network.NewNetworkRange(topo, o.RouteSeed(), rg[0], rg[1]))
							rev = append(rev, network.NewNetworkRange(topo, o.RouteSeed(), rg[0], rg[1]))
						}
						clock := int64(0)
						var nFlits, nCredits int
						for from := int64(0); from < c.Warmup+c.Measure; from = s.end {
							s.epoch(from)
							last := clock
							for i, w := range s.workers {
								byCycle := map[int64][]network.Xmsg{}
								var credits []network.Xmsg
								for _, other := range s.workers {
									for _, m := range other.mail {
										if r, _, _ := m.Dst(); !w.Net.Owns(r) {
											continue
										}
										if m.Kind == network.XFlit {
											byCycle[m.At] = append(byCycle[m.At], m)
										} else {
											credits = append(credits, m)
											last = max(last, m.At)
										}
									}
								}
								for at, ms := range byCycle {
									nFlits += len(ms)
									// Sorted, and strictly: the key is unique per message.
									if !slices.IsSortedFunc(ms, order) || len(slices.CompactFunc(ms, func(a, b network.Xmsg) bool { return order(a, b) == 0 })) != len(ms) {
										t.Fatalf("epoch %d: worker %d pulled cycle %d's flits out of canonical order", from, i, at)
									}
								}
								nCredits += len(credits)
								fwd[i].PutRemote(credits)
								slices.Reverse(credits)
								rev[i].PutRemote(credits)
							}
							for ; clock <= last; clock++ {
								for i := range fwd {
									fwd[i].Step(clock)
									rev[i].Step(clock)
								}
							}
							for i := range fwd {
								if !slices.Equal(creditBanks(fwd[i]), creditBanks(rev[i])) {
									t.Fatalf("epoch %d: worker %d's credit counters depend on application order", from, i)
								}
							}
						}
						if p > 1 && (nFlits == 0 || nCredits == 0) {
							t.Fatalf("vacuous: %d flits and %d credits crossed shards", nFlits, nCredits)
						}
					})
				}
			}
		}
	}
}

// TestShardEpochSteadyStateAllocs gates the sharded hot path: once the
// free lists, calendars and record slices have warmed up, an epoch
// allocates nothing per flit — what is left is the goroutine starts of
// the two barrier phases. It fails when a shard recycles the flits it
// delivers instead of sending them home: in a Clos the sources' shard
// then allocates every flit it generates, ~3 KB per cycle here.
func TestShardEpochSteadyStateAllocs(t *testing.T) {
	topo, err := network.NewClos(network.Config{Radix: 8, Digits: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3} {
		o := network.Options{Topo: topo, Load: 0.5, Seed: 1}.WithDefaults()
		// The window never opens, so the bare Tally is never asked for a
		// latency sample.
		c := drive.Config{Warmup: 1 << 40}
		s := newWorld(o, topo, c, p)
		tally := &drive.Tally{}
		run := func(from, to int64) {
			for now := from; now < to; now++ {
				if err := s.Cycle(now, c.At(now), tally); err != nil {
					t.Fatal(err)
				}
			}
		}
		const cycles = 200
		run(0, cycles)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(cycles, 2*cycles)
		runtime.ReadMemStats(&after)
		if tally.Flits == 0 {
			t.Fatal("vacuous: nothing was delivered")
		}
		if perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles; perCycle >= 1024 {
			t.Errorf("workers=%d: %d bytes allocated per cycle in steady state, want < 1024", p, perCycle)
		}
	}
}
