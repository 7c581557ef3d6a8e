package shard

import (
	"testing"

	"highradix/internal/network"
)

// FuzzShardEquivalence drives randomized small topologies, loads,
// packet lengths, seeds, and worker counts through the serial and
// sharded runners as twins and requires byte-identical results and
// event streams. The seed corpus deliberately includes the degenerate
// shapes: shards of a single router, more workers than routers, and a
// one-router network (Clos with one digit).
func FuzzShardEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(40), uint8(3), uint8(1), uint64(1))
	// Ring of 2 routers across 2 workers: every shard is one router.
	f.Add(uint8(1), uint8(0), uint8(30), uint8(2), uint8(1), uint64(2))
	// 3-router ring under 7 workers: more shards than routers.
	f.Add(uint8(1), uint8(1), uint8(50), uint8(7), uint8(2), uint64(3))
	f.Add(uint8(2), uint8(3), uint8(60), uint8(4), uint8(3), uint64(4))
	// One-digit Clos: the whole network is a single router.
	f.Add(uint8(0), uint8(3), uint8(70), uint8(5), uint8(1), uint64(5))
	f.Fuzz(func(t *testing.T, topoSel, size, loadPct, workers, pktLen uint8, seed uint64) {
		var topo network.Topology
		var err error
		vcs := 2 + 2*int(size%2)
		depth := 2 + int(size)%3
		switch topoSel % 3 {
		case 0:
			topo, err = network.NewClos(network.Config{
				Radix: 2 + int(size)%3, Digits: 1 + int(size/3)%2,
				VCs: vcs, BufDepth: depth,
			})
		case 1:
			topo, err = network.NewTorus(network.TorusConfig{
				X: 2 + int(size)%8, Y: 1, VCs: vcs, BufDepth: depth,
			})
		default:
			topo, err = network.NewTorus(network.TorusConfig{
				X: 2 + int(size)%3, Y: 2 + int(size/3)%3,
				VCs: vcs, BufDepth: depth,
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		base := network.Options{
			Topo:          topo,
			Load:          float64(5+int(loadPct)%86) / 100,
			PktLen:        1 + int(pktLen)%3,
			WarmupCycles:  40,
			MeasureCycles: 80,
			Seed:          seed,
		}
		p := 1 + int(workers)%8

		want, err := network.RunSerial(base)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(Options{Options: base, Workers: p})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s workers=%d result diverged:\n got %+v\nwant %+v", topo.Name(), p, got, want)
		}

		hooked := base
		wantRec := &recorder{}
		hooked.Hooks = wantRec
		wantHooked, err := network.RunSerial(hooked)
		if err != nil {
			t.Fatal(err)
		}
		ho := hooked
		gotRec := &recorder{}
		ho.Hooks = gotRec
		gotHooked, err := Run(Options{Options: ho, Workers: p})
		if err != nil {
			t.Fatal(err)
		}
		if gotHooked != wantHooked {
			t.Fatalf("%s workers=%d hooked result diverged:\n got %+v\nwant %+v", topo.Name(), p, gotHooked, wantHooked)
		}
		if len(gotRec.events) != len(wantRec.events) {
			t.Fatalf("%s workers=%d event stream length %d, want %d", topo.Name(), p, len(gotRec.events), len(wantRec.events))
		}
		for i := range gotRec.events {
			if gotRec.events[i] != wantRec.events[i] {
				t.Fatalf("%s workers=%d event %d diverged: got %+v want %+v",
					topo.Name(), p, i, gotRec.events[i], wantRec.events[i])
			}
		}
	})
}
