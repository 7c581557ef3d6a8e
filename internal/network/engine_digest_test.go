package network_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"testing"

	"highradix/internal/flit"
	"highradix/internal/network"
	"highradix/internal/traffic"
)

var printDigests = flag.Bool("print-digests", false, "print the engine digest table instead of checking it")

// streamDigest hashes every delivered flit as the run presents it to
// its hooks: cycle, PacketID, Seq, Src, Dst, Hops, CreatedAt.
type streamDigest struct{ h hash.Hash }

func (d *streamDigest) Injected(int64, *flit.Flit) {}

func (d *streamDigest) Delivered(now int64, f *flit.Flit) {
	var b [56]byte
	for i, v := range [...]uint64{uint64(now), f.PacketID, uint64(f.Seq), uint64(f.Src),
		uint64(f.Dst), uint64(f.Hops), uint64(f.CreatedAt)} {
		binary.BigEndian.PutUint64(b[8*i:], v)
	}
	d.h.Write(b[:])
}

func (d *streamDigest) EndCycle(int64, int) error { return nil }
func (d *streamDigest) Final(int64) error         { return nil }

// engineDigest runs o hooked (delivery stream + result) and unhooked
// (result only: the path that never stops generating) through run and
// folds both into one SHA-256.
func engineDigest(t *testing.T, o network.Options, run func(network.Options) (network.Result, error)) string {
	t.Helper()
	d := &streamDigest{h: sha256.New()}
	hooked := o
	hooked.Hooks = d
	for _, opts := range []network.Options{hooked, o} {
		res, err := run(opts)
		if err != nil {
			t.Fatal(err)
		}
		d.h.Write(network.EncodeResult(res))
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

func digestTopologies(t *testing.T) []struct {
	name string
	topo network.Topology
} {
	must := func(topo network.Topology, err error) network.Topology {
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	return []struct {
		name string
		topo network.Topology
	}{
		{"clos-k4d2", must(network.NewClos(network.Config{Radix: 4, Digits: 2, VCs: 2, BufDepth: 4}))},
		{"clos-k4d3", must(network.NewClos(network.Config{Radix: 4, Digits: 3, VCs: 2, BufDepth: 4}))},
		{"ring", must(network.NewTorus(network.TorusConfig{X: 8, Y: 1, VCs: 4, BufDepth: 4}))},
		{"torus", must(network.NewTorus(network.TorusConfig{X: 3, Y: 3, VCs: 4, BufDepth: 4}))},
		// One radix-32 router, whose channels take two cycles per flit:
		// the only row a serializer that ignored ser would move.
		{"clos-k32d1", must(network.NewClos(network.Config{Radix: 32, Digits: 1}))},
	}
}

// TestEngineDigest is the engine's byte-identity oracle. The digests
// were recorded on the pointer-chasing engine that preceded the flat
// banks (commit eb89b70); TestShardDeterminism cannot stand in for
// them, because serial and sharded runs share one engine and an engine
// bug moves both. The clos-k32d1 rows were recorded later, on the flat
// engine: theirs are the only channels that take more than one cycle per
// flit. A digest that changes means simulated output changed.
func TestEngineDigest(t *testing.T) {
	modes := []struct {
		name string
		inj  traffic.InjMode
	}{{"percycle", traffic.InjPerCycle}, {"gap", traffic.InjGap}}
	for _, tc := range digestTopologies(t) {
		for _, pktLen := range []int{1, 4} {
			for _, mode := range modes {
				for seed := uint64(1); seed <= 2; seed++ {
					name := fmt.Sprintf("%s/pkt%d/%s/seed%d", tc.name, pktLen, mode.name, seed)
					o := network.Options{
						Topo: tc.topo, Load: 0.5, PktLen: pktLen,
						WarmupCycles: 100, MeasureCycles: 300,
						Seed: seed, Injection: mode.inj,
					}
					if *printDigests {
						fmt.Printf("\t%q: %q,\n", name, engineDigest(t, o, network.RunSerial))
						continue
					}
					t.Run(name, func(t *testing.T) {
						want, ok := engineDigests[name]
						if !ok {
							t.Fatalf("no recorded digest for %s", name)
						}
						if got := engineDigest(t, o, network.RunSerial); got != want {
							t.Errorf("serial digest %s, want %s", got, want)
						}
						for _, w := range []int{1, 3} {
							got := engineDigest(t, o, func(o network.Options) (network.Result, error) {
								return network.RunSharded(o, w)
							})
							if got != want {
								t.Errorf("workers=%d digest %s, want %s", w, got, want)
							}
						}
					})
				}
			}
		}
	}
}

var engineDigests = map[string]string{
	"clos-k4d2/pkt1/percycle/seed1":  "ef7cdcd7fd4596ffee679a24b4ede0df9eba63de31e156ff21e5408aec3929da",
	"clos-k4d2/pkt1/percycle/seed2":  "dfe58595e5cb582290e79ce946ff0de4e1658836efc06adb9541c6955b3d6b8c",
	"clos-k4d2/pkt1/gap/seed1":       "f686320f52fc016ba36859d335914a71adc241d61bf4394ad9c3ae9119d93a72",
	"clos-k4d2/pkt1/gap/seed2":       "28b8ba04fa3074c4da9c850dff4a987f7c31d9f9953f8d8b9dd413e97d5012f8",
	"clos-k4d2/pkt4/percycle/seed1":  "789e5466902f1d8c516fbcf3a8819c4c40891b9f2fa7625dcdc7524e3cdfffa7",
	"clos-k4d2/pkt4/percycle/seed2":  "f94e49aaca40628c333f388d1ba55f49709c264aca4140601dc06fa2e8e6ea62",
	"clos-k4d2/pkt4/gap/seed1":       "aea6bf7e0a42a2f652d355ca92bc00212a3ea160ad445b0ed890a7351fa7cffe",
	"clos-k4d2/pkt4/gap/seed2":       "ad75319eef2dbedfe67d6cd4aad2f16a35d92729bdcab7b683af0d65dd9b0b6a",
	"clos-k4d3/pkt1/percycle/seed1":  "5de84b8586e394bf5d0957d3938fa6f3ec6128b704bc6f82a259c5ae6a4cf384",
	"clos-k4d3/pkt1/percycle/seed2":  "228061478028e4491a8d01ee92627304ed946960ef642f07c94dacfd2cd384b0",
	"clos-k4d3/pkt1/gap/seed1":       "0f938ba998425329a533f740bd980936fd11fb3b5dacfa9f1d885339b2db016b",
	"clos-k4d3/pkt1/gap/seed2":       "64f14e3ec4d3d5fde11d02496acd165ef2f15c57d68be4bfc7a0694830c33d7d",
	"clos-k4d3/pkt4/percycle/seed1":  "31bcf8d39625bf7fc22ebc490716a6eacafec3b0cb9c3d80c3149db4ef70748c",
	"clos-k4d3/pkt4/percycle/seed2":  "c048d0d5b65153670277192e7e062f177fb0a8c8114c6836fdca069898ec08b2",
	"clos-k4d3/pkt4/gap/seed1":       "8cc990f833da2d27387146ed4623a8b49fff6a9c0b63a805026a63751d99ad5a",
	"clos-k4d3/pkt4/gap/seed2":       "3af1b516153cdb4a5e9e4e2fea5e552b78cbc3c483352a8ac741b52baffa01e4",
	"ring/pkt1/percycle/seed1":       "fdd3625d288b0201530e280a5955314377e49c2304b94efa169aa178e690199f",
	"ring/pkt1/percycle/seed2":       "6c871eb61e7ed4dab15af0de6b7dded12cf9ed544ade5c5cfe5d507f9065fb46",
	"ring/pkt1/gap/seed1":            "c95e8abb80e19a146c42864b29e2fb62a54b4f750b0e394768efc756227fa811",
	"ring/pkt1/gap/seed2":            "aff4d7b3ae1b534fd43255090b4e92d6e4e535b77b73032569c028a21ec36dc9",
	"ring/pkt4/percycle/seed1":       "6e81fc781950c33f57e3080c29f5e27b5d45e8a0443945224d5e2a2ace5d11e7",
	"ring/pkt4/percycle/seed2":       "60dc8c2f1f6f00b0b4cadf8c1d2e0b34acfcec67090f7286669dae11edad0d01",
	"ring/pkt4/gap/seed1":            "c18d656a1bbd9bdf82e9f93e7e62a07eff9f5273ba1e08ca3314cf727af59fd0",
	"ring/pkt4/gap/seed2":            "1df032725ec0f904b76954f55ff4dbcce1566db3d7f4e9fb5a8f2ee22bcec51a",
	"torus/pkt1/percycle/seed1":      "eb9db89e81c3f64f88190cae7cdaa5f41af0941d3415ba61eeb60e5c3ad2bf5f",
	"torus/pkt1/percycle/seed2":      "cc368a92cdc5cf14e7605c72a997f19538b26362792891841ba0cdf6da89ea23",
	"torus/pkt1/gap/seed1":           "b4fd38f957242e97e34aa75988c9e339e9698cf7e7b27b20f2dd25e7f813198f",
	"torus/pkt1/gap/seed2":           "51ad4b4895c09296b486f96bea8ccfa3722694dc35b38335dbe29ffeddc546b8",
	"torus/pkt4/percycle/seed1":      "9f2895a073cb96f23657bea49ef8e0a81f1f9e9ba85258b07a06e670b3e4a9b6",
	"torus/pkt4/percycle/seed2":      "e3b0b9b42a1b2349ae02446ce606559e8aa86bd06f3ea1835e923b98adab2b2d",
	"torus/pkt4/gap/seed1":           "b8ce86a36807bd435479fef7aeb7c803d9795efb9b00d42aaf599909d5882c20",
	"torus/pkt4/gap/seed2":           "cc532e178e13f6fa2a3719939aa8a0add7a72c275721e70654e04ca0f9ba0f0c",
	"clos-k32d1/pkt1/percycle/seed1": "57abb02f60284cd853a4d4a18cbb4ff2a01f7f180625cbaf213ee8428af46af2",
	"clos-k32d1/pkt1/percycle/seed2": "8f13b6106ed7df9a693a19f505df0977ca82db7e2b7c7abd28fa05ae79baaa98",
	"clos-k32d1/pkt1/gap/seed1":      "11cde14849520e1473e3e4d73749a8b82d28a9abb1e643a71b4d63b8caf97d62",
	"clos-k32d1/pkt1/gap/seed2":      "c32ea1ae089f4c604bfea5f8e6306c35153d24cc5e3583b928a8d2911de39f3d",
	"clos-k32d1/pkt4/percycle/seed1": "907762ec43296e950e94870b0bb5fbedb8052d1299d3f8e136c3bce856383e44",
	"clos-k32d1/pkt4/percycle/seed2": "7b9c5fbf70cba72b6ec9dd063585ae77b8185a71217ff726ea3c91336a872383",
	"clos-k32d1/pkt4/gap/seed1":      "65fc8bea0e58bf72302107cd1d9d7021e10aa6282cec3adc2507cb33e7ff9ffe",
	"clos-k32d1/pkt4/gap/seed2":      "90b1aa662ffacaee36b3be3ce79b988ffdfa1fbe201c556f7717de2e334e0c24",
}
