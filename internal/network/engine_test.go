package network_test

import (
	"fmt"
	"strings"
	"testing"

	"highradix/internal/drive"
	"highradix/internal/network"
)

// The engine, whole or one shard's range of it, is what NewWorld puts
// behind a source bank.
var _ drive.Device = (*network.Network)(nil)

// TestWiringTablesMatchTopology pins the engine's precomputed link
// table to the topology's Link and its feeder table to a brute-force
// inversion of Link and Entry, for every (router, port), over a full
// engine and over a shard-style sub-range (whose tables are offset by
// lo, and whose remote ends are mailed).
func TestWiringTablesMatchTopology(t *testing.T) {
	for _, tc := range digestTopologies(t) {
		n, ports := tc.topo.Routers(), tc.topo.Ports()
		for _, rg := range [][2]int{{0, n}, {n / 3, n - 1}} {
			l := network.Layout{
				Routers:   [][2]int{{0, rg[0]}, rg, {rg[1], n}},
				Terminals: [][2]int{{0, 0}, {0, tc.topo.Terminals()}, {tc.topo.Terminals(), tc.topo.Terminals()}},
			}
			links, feeders := network.NewNetworkRange(tc.topo, 1, l, 1).WiringTables()
			if got, want := len(links), (rg[1]-rg[0])*ports; got != want {
				t.Fatalf("%s [%d,%d): %d link entries, want %d", tc.name, rg[0], rg[1], got, want)
			}
			for r := rg[0]; r < rg[1]; r++ {
				for p := 0; p < ports; p++ {
					o := (r-rg[0])*ports + p
					if got, want := links[o], tc.topo.Link(r, p); got != want {
						t.Errorf("%s [%d,%d): links[%d] = %+v, topo.Link(%d,%d) = %+v", tc.name, rg[0], rg[1], o, got, r, p, want)
					}
					if want := network.FeedersOf(tc.topo, r, p); len(want) != 1 || feeders[o] != want[0] {
						t.Errorf("%s [%d,%d): feeders[%d] = %+v, fed by %+v", tc.name, rg[0], rg[1], o, feeders[o], want)
					}
				}
			}
		}
	}
}

// miswired wraps a topology and points output port 1 of router 0 at the
// input port 0 already feeds, leaving the one it fed before unfed.
type miswired struct{ network.Topology }

func (m miswired) Link(r, p int) network.Link {
	if r == 0 && p == 1 {
		p = 0
	}
	return m.Topology.Link(r, p)
}

// TestMiswiredTopologyPanics is the wiring check's mutation test: an
// engine whose owned input is fed twice, or not at all, must refuse to
// build and name the port. In the radix-4 Clos, outputs 0 and 1 of
// router 0 lead to input 0 of routers 4 and 5.
func TestMiswiredTopologyPanics(t *testing.T) {
	topo := miswired{digestTopologies(t)[0].topo}
	n := topo.Routers()
	for _, tc := range []struct {
		owned [2]int
		want  string
	}{
		{[2]int{0, n}, "router 4 input port 0 is fed 2 times"},
		{[2]int{5, n}, "router 5 input port 0 is fed 0 times"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("owning %v: panic %q, want one containing %q", tc.owned, msg, tc.want)
				}
			}()
			network.NewNetworkRange(topo, 1, network.Layout{
				Routers:   [][2]int{{0, tc.owned[0]}, tc.owned},
				Terminals: [][2]int{{0, 0}, {0, topo.Terminals()}},
			}, 1)
		}()
	}
}

// misnumbered wraps a topology and swaps the terminals its first two
// ejection links lead to: every terminal is still reached once, but not
// in (router, port) order.
type misnumbered struct{ network.Topology }

func (m misnumbered) Link(r, p int) network.Link {
	ln := m.Topology.Link(r, p)
	if ln.Router < 0 && ln.Terminal < 2 {
		ln.Terminal ^= 1
	}
	return ln
}

// TestMisnumberedTopologyPanics: Step delivers a cycle's flits in
// (router, output port) order and Ejected promises them in terminal
// order, so an engine over a topology whose ejection links number their
// terminals out of that order must refuse to build, whatever it owns.
func TestMisnumberedTopologyPanics(t *testing.T) {
	for _, tc := range digestTopologies(t) {
		topo := misnumbered{tc.topo}
		n := topo.Routers()
		for _, owned := range [][2]int{{0, n}, {n, n}} {
			func() {
				defer func() {
					want := "ejects to terminal 0 after terminal 1"
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
						t.Errorf("%s owning %v: panic %q, want one containing %q", tc.name, owned, msg, want)
					}
				}()
				network.NewNetworkRange(topo, 1, network.Layout{
					Routers:   [][2]int{{0, owned[0]}, owned},
					Terminals: [][2]int{{0, 0}, {0, topo.Terminals()}},
				}, 1)
			}()
		}
	}
}

// oversize wraps a topology and overrides the dimensions that are set,
// to present the engine with one it cannot index.
type oversize struct {
	network.Topology
	ports, vcs, depth, routers, terminals, diameter int
}

func pick(override, base int) int {
	if override != 0 {
		return override
	}
	return base
}

func (o oversize) Ports() int     { return pick(o.ports, o.Topology.Ports()) }
func (o oversize) VCs() int       { return pick(o.vcs, o.Topology.VCs()) }
func (o oversize) BufDepth() int  { return pick(o.depth, o.Topology.BufDepth()) }
func (o oversize) Routers() int   { return pick(o.routers, o.Topology.Routers()) }
func (o oversize) Terminals() int { return pick(o.terminals, o.Topology.Terminals()) }
func (o oversize) Diameter() int  { return pick(o.diameter, o.Topology.Diameter()) }

// TestOversizeTopologyIsAnError checks that both drivers turn a topology
// beyond the engine's index widths into an error naming the limit —
// before building anything, so neither a panic nor a wrapped index nor a
// giant allocation can follow — and that the direct Clos constructor
// does the same.
func TestOversizeTopologyIsAnError(t *testing.T) {
	base := digestTopologies(t)[0].topo
	for _, tc := range []struct {
		name  string
		topo  oversize
		limit int
	}{
		{"ports", oversize{Topology: base, ports: network.MaxPorts + 1}, network.MaxPorts},
		{"vcs", oversize{Topology: base, vcs: network.MaxVCs + 1}, network.MaxVCs},
		{"depth", oversize{Topology: base, depth: network.MaxBufDepth + 1}, network.MaxBufDepth},
		{"queues", oversize{Topology: base, routers: 1 << 20, ports: 1 << 10, vcs: 4}, network.MaxQueues},
		{"injection", oversize{Topology: base, terminals: 1 << 30, vcs: 4}, network.MaxQueues},
		{"terminals", oversize{Topology: base, terminals: network.MaxTerminals + 1}, network.MaxTerminals},
		{"hops", oversize{Topology: base, diameter: network.MaxHops + 1}, network.MaxHops},
	} {
		o := network.Options{Topo: tc.topo, Load: 0.1, WarmupCycles: 10, MeasureCycles: 10}
		for driver, run := range map[string]func() (network.Result, error){
			"network.Run":        func() (network.Result, error) { return network.Run(o) },
			"network.RunSharded": func() (network.Result, error) { return network.RunSharded(o, 2) },
		} {
			_, err := run()
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(tc.limit)) {
				t.Errorf("%s, %s: error %v, want one naming the limit %d", tc.name, driver, err, tc.limit)
			}
		}
	}
	if _, err := network.New(network.Config{Radix: network.MaxPorts + 1, Digits: 1}, 0); err == nil {
		t.Error("network.New accepted a Clos wider than MaxPorts")
	}
}

// TestEmptyRangeConstructs checks the other edge of construction: an
// engine over zero routers (a shard left empty because workers exceed
// routers) builds and steps, and such a run still equals the serial one.
func TestEmptyRangeConstructs(t *testing.T) {
	ring := digestTopologies(t)[2].topo
	network.NewNetworkRange(ring, 1, network.Layout{
		Routers:   [][2]int{{0, 3}, {3, 3}, {3, ring.Routers()}},
		Terminals: [][2]int{{0, 3}, {3, 3}, {3, ring.Terminals()}},
	}, 1).Step(0)
	o := network.Options{Topo: ring, Load: 0.4, WarmupCycles: 50, MeasureCycles: 100, Seed: 5}
	want, err := network.RunSerial(o)
	if err != nil {
		t.Fatal(err)
	}
	got, err := network.RunSharded(o, ring.Routers()+3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("workers > routers diverged:\n got %+v\nwant %+v", got, want)
	}
}
