package network

import "testing"

// TestWiringTablesMatchTopology pins the engine's precomputed link and
// feeder tables to the topology's own answers for every (router, port),
// over a full engine and over a shard-style sub-range (whose tables are
// offset by lo).
func TestWiringTablesMatchTopology(t *testing.T) {
	for _, tc := range testTopologies(t) {
		n := tc.topo.Routers()
		for _, rg := range [][2]int{{0, n}, {n / 3, n - 1}} {
			nw := NewNetworkRange(tc.topo, 1, rg[0], rg[1])
			if got, want := len(nw.links), (rg[1]-rg[0])*tc.topo.Ports(); got != want {
				t.Fatalf("%s [%d,%d): %d link entries, want %d", tc.name, rg[0], rg[1], got, want)
			}
			for r := rg[0]; r < rg[1]; r++ {
				for p := 0; p < tc.topo.Ports(); p++ {
					o := (r-rg[0])*tc.topo.Ports() + p
					if got, want := nw.links[o], tc.topo.Link(r, p); got != want {
						t.Errorf("%s [%d,%d): links[%d] = %+v, topo.Link(%d,%d) = %+v", tc.name, rg[0], rg[1], o, got, r, p, want)
					}
					if got, want := nw.feeders[o], tc.topo.Feeder(r, p); got != want {
						t.Errorf("%s [%d,%d): feeders[%d] = %+v, topo.Feeder(%d,%d) = %+v", tc.name, rg[0], rg[1], o, got, r, p, want)
					}
				}
			}
		}
	}
}

func testTopologies(t *testing.T) []struct {
	name string
	topo Topology
} {
	must := func(topo Topology, err error) Topology {
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	return []struct {
		name string
		topo Topology
	}{
		{"clos-k4d2", must(NewClos(Config{Radix: 4, Digits: 2, VCs: 2, BufDepth: 4}))},
		{"clos-k4d3", must(NewClos(Config{Radix: 4, Digits: 3, VCs: 2, BufDepth: 4}))},
		{"ring", must(NewRing(RingConfig{Routers: 8, VCs: 4, BufDepth: 4}))},
		{"torus", must(NewTorus(TorusConfig{X: 3, Y: 3, VCs: 4, BufDepth: 4}))},
	}
}
