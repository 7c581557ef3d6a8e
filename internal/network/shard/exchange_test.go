package shard

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"highradix/internal/drive"
	"highradix/internal/network"
)

// canonicalCmp is the comparator the epoch exchange used to sort every
// mailbox by (network.SortXmsgs, deleted with the sort), over flits: the
// canonical (At, SrcRouter, SrcPort, VC) key, with a terminal's flits
// (source router -1) ahead of every router's and ordered by terminal,
// as a serial run injects before it steps. A message does not carry its
// source; the wiring gives it back — a flit left the output or terminal
// feeding its destination input, found by inverting Link and Entry.
func canonicalCmp(topo network.Topology) func(a, b network.Arrival) int {
	ports := topo.Ports()
	feeders := make([]network.Link, topo.Routers()*ports)
	for r := range topo.Routers() {
		for p := range ports {
			if ln := topo.Link(r, p); ln.Router >= 0 {
				feeders[ln.Router*ports+ln.Port] = network.Link{Router: r, Port: p}
			}
		}
	}
	for term := range topo.Terminals() {
		r, p := topo.Entry(term)
		feeders[r*ports+p] = network.Link{Router: -1, Terminal: term}
	}
	src := func(m *network.Arrival) network.Link { return feeders[int(m.Router)*ports+int(m.Port)] }
	return func(a, b network.Arrival) int {
		as, bs := src(&a), src(&b)
		return cmp.Or(
			cmp.Compare(a.At, b.At),
			cmp.Compare(as.Router, bs.Router),
			cmp.Compare(as.Terminal, bs.Terminal),
			cmp.Compare(as.Port, bs.Port),
			cmp.Compare(a.VC, b.VC),
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
// rests on instead of trusting it. Nothing sorts the mailboxes, so over
// the determinism matrix, after every epoch of the runner itself
// (network.Exchange): the flits a worker will take, in the order it
// takes them, must be addressed to its routers and already be in
// strictly ascending canonical order within each arrival cycle, which
// is all a calendar bucket can observe; and the credits it will take
// must be addressed to its routers or terminals and leave the same
// counters behind applied forward and reversed, through the engine's
// own PutCredits and Step.
func TestOutboxCanonicalByConstruction(t *testing.T) {
	for name, topo := range testTopologies(t) {
		order := canonicalCmp(topo)
		flat := topo.Ports() * topo.VCs()
		for _, pktLen := range []int{1, 4} {
			for _, p := range []int{1, 2, 3, 7} {
				t.Run(fmt.Sprintf("%s/percycle/pkt%d/workers%d", name, pktLen, p), func(t *testing.T) {
					o := baseOpts(topo, 1)
					o.PktLen = pktLen
					o = o.WithDefaults()
					c := drive.Config{Warmup: o.WarmupCycles, Measure: o.MeasureCycles, Drain: o.DrainCycles}
					x := network.NewExchange(o, topo, c, p)
					defer x.Stop()
					// Two idle engines per shard take the credits only, one
					// forward and one reversed; clock is the next cycle to step.
					l := network.Layout{Routers: network.Partition(topo.Routers(), p), Terminals: network.Partition(topo.Terminals(), p)}
					var fwd, rev []*network.Network
					for i := range p {
						fwd = append(fwd, network.NewNetworkRange(topo, o.RouteSeed(), l, i))
						rev = append(rev, network.NewNetworkRange(topo, o.RouteSeed(), l, i))
					}
					clock := int64(0)
					var nFlits, nCredits int
					for from, end := int64(0), int64(0); from < c.Warmup+c.Measure; from = end {
						end = x.Epoch(from)
						last := clock
						for j := range p {
							net := x.Net(j)
							byCycle := map[uint32][]network.Arrival{}
							var credits []network.CreditMail
							for _, ms := range x.Flits(j) {
								for _, m := range ms {
									if !net.Owns(int(m.Router)) {
										t.Fatalf("epoch %d: worker %d was mailed a flit for router %d", from, j, m.Router)
									}
									byCycle[m.At] = append(byCycle[m.At], m)
								}
							}
							for _, ms := range x.Credits(j) {
								for _, m := range ms {
									if q := int(m.Q); q >= 0 && !net.Owns(q/flat) || q < 0 && x.Home(^q/topo.VCs()) != j {
										t.Fatalf("epoch %d: worker %d was mailed a credit it has no use for: %d", from, j, q)
									}
									credits = append(credits, m)
									last = max(last, int64(m.At))
								}
							}
							for at, ms := range byCycle {
								nFlits += len(ms)
								// Sorted, and strictly: the key is unique per message.
								if !slices.IsSortedFunc(ms, order) || len(slices.CompactFunc(ms, func(a, b network.Arrival) bool { return order(a, b) == 0 })) != len(ms) {
									t.Fatalf("epoch %d: worker %d pulled cycle %d's flits out of canonical order", from, j, at)
								}
							}
							nCredits += len(credits)
							fwd[j].PutCredits(credits, clock)
							slices.Reverse(credits)
							rev[j].PutCredits(credits, clock)
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
