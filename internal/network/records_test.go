package network

import (
	"testing"
	"unsafe"
)

// TestRecordSizes pins the widths of the records every flit-hop moves:
// a buffered flit, an outgoing channel VC, and the two kinds of mail
// between engines. Growing one slows every run, serial or sharded.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"slot", unsafe.Sizeof(slot{}), 24},
		{"outVC", unsafe.Sizeof(outVC{}), 8},
		{"output", unsafe.Sizeof(output{}), 24},
		{"feeder", unsafe.Sizeof(feeder{}), 8},
		{"Arrival (flit mail)", unsafe.Sizeof(Arrival{}), 32},
		{"CreditMail", unsafe.Sizeof(CreditMail{}), 8},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.got, c.want)
		}
	}
}

// TestDiameterBoundsEveryRoute walks every (source, destination) route
// of each topology family through NextHop and the wiring, and checks
// that none crosses more routers than Diameter and some crosses that
// many: the hop count CheckLimits bounds by MaxHops is exactly the one
// the engine packs into a flit's dh word.
func TestDiameterBoundsEveryRoute(t *testing.T) {
	for _, topo := range []Topology{
		mustClos(t, Config{Radix: 4, Digits: 2}),
		mustClos(t, Config{Radix: 3, Digits: 3}),
		mustTorus(t, TorusConfig{X: 7, Y: 1}),
		mustTorus(t, TorusConfig{X: 8, Y: 1}),
		mustTorus(t, TorusConfig{X: 3, Y: 4}),
		mustTorus(t, TorusConfig{X: 4, Y: 4}),
	} {
		longest := 0
		for src := 0; src < topo.Terminals(); src++ {
			for dst := 0; dst < topo.Terminals(); dst++ {
				r, p := topo.Entry(src)
				vc, hops := 0, 0
				for {
					op, ovc := topo.NextHop(r, p, dst, vc, routeKey(7, uint64(src<<16|dst), r))
					hops++
					l := topo.Link(r, op)
					if l.Router < 0 {
						if l.Terminal != dst {
							t.Fatalf("%s: route %d->%d exits at terminal %d", topo.Name(), src, dst, l.Terminal)
						}
						break
					}
					if hops > topo.Diameter() {
						t.Fatalf("%s: route %d->%d crosses more than Diameter %d routers", topo.Name(), src, dst, topo.Diameter())
					}
					r, p, vc = l.Router, l.Port, ovc
				}
				longest = max(longest, hops)
			}
		}
		if longest != topo.Diameter() {
			t.Errorf("%s: longest route crosses %d routers, Diameter says %d", topo.Name(), longest, topo.Diameter())
		}
	}
}
