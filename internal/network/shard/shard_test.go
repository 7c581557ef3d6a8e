package shard

import (
	"fmt"
	"testing"

	"highradix/internal/flit"
	"highradix/internal/network"
)

// event is one observable boundary event: an injection or delivery with
// everything that identifies the flit. Comparing full event streams is
// a much stronger check than comparing Result structs: it pins not just
// the aggregate statistics but the exact cycle-by-cycle order the run
// presents to its hooks.
type event struct {
	at       int64
	injected bool
	pkt      uint64
	seq      int
	src, dst int
}

// recorder captures the boundary event stream of a run.
type recorder struct{ events []event }

func (r *recorder) Injected(now int64, f *flit.Flit) {
	r.events = append(r.events, event{at: now, injected: true, pkt: f.PacketID, seq: f.Seq, src: f.Src, dst: f.Dst})
}

func (r *recorder) Delivered(now int64, f *flit.Flit) {
	r.events = append(r.events, event{at: now, pkt: f.PacketID, seq: f.Seq, src: f.Src, dst: f.Dst})
}

func (r *recorder) EndCycle(now int64, inFlight int) error { return nil }
func (r *recorder) Final(int64) error                      { return nil }

func testTopologies(t testing.TB) map[string]network.Topology {
	clos, err := network.NewClos(network.Config{Radix: 4, Digits: 2, VCs: 2, BufDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := network.NewTorus(network.TorusConfig{X: 8, Y: 1, VCs: 4, BufDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	torus, err := network.NewTorus(network.TorusConfig{X: 3, Y: 3, VCs: 4, BufDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]network.Topology{"clos": clos, "ring": ring, "torus": torus}
}

func baseOpts(topo network.Topology, seed uint64) network.Options {
	return network.Options{
		Topo:          topo,
		Load:          0.45,
		WarmupCycles:  80,
		MeasureCycles: 160,
		Seed:          seed,
	}
}

// TestShardDeterminism is the equivalence battery of the sharded
// runner: for every topology family and seed, the sharded run at each
// worker count must reproduce the serial run's Result byte-for-byte
// (unhooked path) and its full injection/delivery event stream (hooked
// path). The subtests keep the name of the sources' discipline,
// "percycle", the one a network run draws by.
func TestShardDeterminism(t *testing.T) {
	workers := []int{1, 2, 3, 7}
	for name, topo := range testTopologies(t) {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/percycle/seed%d", name, seed), func(t *testing.T) {
				base := baseOpts(topo, seed)
				want, err := network.RunSerial(base)
				if err != nil {
					t.Fatal(err)
				}
				hookedBase := base
				wantRec := &recorder{}
				hookedBase.Hooks = wantRec
				wantHooked, err := network.RunSerial(hookedBase)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range workers {
					got, err := Run(Options{Options: base, Workers: p})
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("workers=%d result diverged:\n got %+v\nwant %+v", p, got, want)
					}
					gotRec := &recorder{}
					ho := hookedBase
					ho.Hooks = gotRec
					gotHooked, err := Run(Options{Options: ho, Workers: p})
					if err != nil {
						t.Fatal(err)
					}
					if gotHooked != wantHooked {
						t.Errorf("workers=%d hooked result diverged:\n got %+v\nwant %+v", p, gotHooked, wantHooked)
					}
					diffStreams(t, p, gotRec.events, wantRec.events)
				}
			})
		}
	}
}

func diffStreams(t *testing.T, workers int, got, want []event) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("workers=%d event stream length %d, want %d", workers, len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("workers=%d event %d diverged: got %+v want %+v", workers, i, got[i], want[i])
			return
		}
	}
}

// TestShardMultiFlit extends the battery to wormhole (multi-flit)
// packets, where link-VC ownership spans cycles and therefore epochs.
func TestShardMultiFlit(t *testing.T) {
	for name, topo := range testTopologies(t) {
		t.Run(name, func(t *testing.T) {
			base := baseOpts(topo, 7)
			base.PktLen = 3
			base.Load = 0.5
			want, err := network.RunSerial(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 3, 7} {
				got, err := Run(Options{Options: base, Workers: p})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("workers=%d multi-flit result diverged:\n got %+v\nwant %+v", p, got, want)
				}
			}
		})
	}
}

// TestRunRejectsBadLoads: the sharded runner refuses the loads and
// phases network.Run refuses.
func TestRunRejectsBadLoads(t *testing.T) {
	for name, bad := range map[string]func(o *network.Options){
		"negative load":            func(o *network.Options) { o.Load = -0.5 },
		"load over 1 packet/cycle": func(o *network.Options) { o.Load = 8 },
		"negative packet length":   func(o *network.Options) { o.PktLen = -2 },
		"negative warmup":          func(o *network.Options) { o.WarmupCycles = -100 },
		"negative measure":         func(o *network.Options) { o.MeasureCycles = -50 },
		"negative drain":           func(o *network.Options) { o.DrainCycles = -1 },
	} {
		o := baseOpts(testTopologies(t)["clos"], 1)
		bad(&o)
		if _, err := Run(Options{Options: o, Workers: 2}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestPartition pins the partitioner's contract: contiguous, covering,
// sizes differing by at most one, and empty tails when workers exceed
// routers.
func TestPartition(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{12, 1}, {12, 3}, {12, 5}, {7, 7}, {3, 7}, {1, 4}} {
		parts := network.Partition(tc.n, tc.p)
		if len(parts) != tc.p {
			t.Fatalf("Partition(%d,%d) has %d parts", tc.n, tc.p, len(parts))
		}
		lo, min, max := 0, tc.n, 0
		for _, rg := range parts {
			if rg[0] != lo || rg[1] < rg[0] {
				t.Fatalf("Partition(%d,%d) not contiguous: %v", tc.n, tc.p, parts)
			}
			size := rg[1] - rg[0]
			if size < min {
				min = size
			}
			if size > max {
				max = size
			}
			lo = rg[1]
		}
		if lo != tc.n || max-min > 1 {
			t.Fatalf("Partition(%d,%d) = %v: cover end %d, size spread %d", tc.n, tc.p, parts, lo, max-min)
		}
	}
}
