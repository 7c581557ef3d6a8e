package testbench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"testing"

	"highradix/internal/router"
	"highradix/internal/sim"
	"highradix/internal/traffic"
)

var printDigests = flag.Bool("print-digests", false, "print the driver digest table instead of checking it")

// digestRun executes o with an observer hashing every event into h by
// value (flits are recycled, so a flit is hashed as its (PacketID, Seq)
// identity), then hashes the encoded Result. A run error is hashed as
// its text, so an error that appears or disappears moves the digest.
func digestRun(h hash.Hash, o Options) {
	o.Router.Observer = router.ObserverFunc(func(e router.Event) {
		var pkt, seq uint64
		if e.Flit != nil {
			pkt, seq = e.Flit.PacketID, uint64(e.Flit.Seq)
		}
		var b [72]byte
		for i, v := range [...]uint64{uint64(e.Cycle), uint64(e.Kind), uint64(e.Input), uint64(e.Output),
			uint64(e.VC), uint64(e.Delta), uint64(e.Depth), pkt, seq} {
			binary.BigEndian.PutUint64(b[8*i:], v)
		}
		h.Write(b[:])
		h.Write([]byte(e.Note))
	})
	res, err := Run(o)
	if err != nil {
		h.Write([]byte(err.Error()))
		return
	}
	h.Write(EncodeResult(res))
}

// digestPoint is one operating point of a digest row.
type digestPoint struct {
	seed  uint64
	load  float64
	drain int64
}

// driverDigest folds the runs of one table row into one SHA-256:
// {Check off, on} x {PktLen 1, 4} x three operating points over two
// seeds, each stepped with fast-forwarding and then dense. Load 0.45
// keeps the router busy through the window, 0.04 leaves the idle
// stretches that gap runs and checked drain tails jump across, and
// 0.95 against a 60-cycle drain ends on the cycle bound instead of an
// exit rule.
func driverDigest(t *testing.T, base Options) string {
	t.Helper()
	return foldDigest(t, base, []bool{false, true}, []int{1, 4},
		[]digestPoint{{1, 0.45, 0}, {2, 0.04, 0}, {1, 0.95, 60}})
}

// foldDigest hashes base at every (check, packet length, operating
// point) into one SHA-256. Each run's dense twin must hash identically,
// so it is compared, not folded.
func foldDigest(t *testing.T, base Options, checks []bool, pktLens []int, points []digestPoint) string {
	t.Helper()
	h := sha256.New()
	for _, chk := range checks {
		for _, pktLen := range pktLens {
			for _, run := range points {
				o := base
				o.Check, o.PktLen, o.Seed, o.Load, o.DrainCycles = chk, pktLen, run.seed, run.load, run.drain
				var twin [2]string
				for i, noFF := range []bool{false, true} {
					o.NoFastForward = noFF
					one := sha256.New()
					digestRun(one, o)
					twin[i] = hex.EncodeToString(one.Sum(nil))
				}
				if twin[0] != twin[1] {
					t.Errorf("check=%v pktlen=%d load=%v: fast-forward digest %s, dense %s",
						chk, pktLen, run.load, twin[0], twin[1])
				}
				h.Write([]byte(twin[0]))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDriverDigest is the single-router driver's byte-identity oracle,
// the counterpart of internal/network's TestEngineDigest: for every
// registered architecture's test variants, Bernoulli and bursty sources
// drawn per cycle and Bernoulli sources gap-sampled, plus one trace
// replay, the SHA-256 of the
// observer event stream and the encoded Result. The digests were
// recorded on the hand-written loop inside testbench.Run (commit
// 2896203), before internal/drive replaced it; the fast-forward twins
// cannot stand in for them, because both twins run through one driver
// and a driver bug moves both. A digest that changes means simulated
// output changed. The trace row was recorded again once a replay stopped
// being judged against the Load the fold sets (0.45 and 0.95): only its
// Saturated bit moved, from true to false.
func TestDriverDigest(t *testing.T) {
	type row struct {
		name string
		o    Options
	}
	var rows []row
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		for _, vt := range d.Variants(16, 2) {
			for _, inj := range []traffic.InjMode{traffic.InjPerCycle, traffic.InjGap} {
				for _, bursty := range []bool{false, true} {
					if bursty && inj == traffic.InjGap {
						continue // refused: Markov ON/OFF sources have no gap form
					}
					proc := "bernoulli"
					if bursty {
						proc = "bursty"
					}
					rows = append(rows, row{
						name: fmt.Sprintf("%s/%s/%s", vt.Name, inj, proc),
						o: Options{Router: vt.Config, Injection: inj, Bursty: bursty,
							WarmupCycles: 100, MeasureCycles: 300},
					})
				}
			}
		}
	}
	// A sparse trace: idle gaps between packets and a tail past the
	// window, so the replay exercises the trace-extended cycle bound.
	tr := traffic.GenerateTrace(sim.NewRNG(7), 16, 600, 0.02, 3, traffic.NewUniform(16))
	rows = append(rows, row{
		name: "trace",
		o: Options{Router: router.Config{Arch: router.ArchHierarchical, Radix: 16, VCs: 2},
			Trace: tr, WarmupCycles: 100, MeasureCycles: 300},
	})
	for _, r := range rows {
		checkDigest(t, r.name, driverDigests, func(t *testing.T) string { return driverDigest(t, r.o) })
	}
}

// checkDigest holds one row to its recorded digest, or prints it under
// -print-digests.
func checkDigest(t *testing.T, name string, recorded map[string]string, digest func(*testing.T) string) {
	if *printDigests {
		fmt.Printf("\t%q: %q,\n", name, digest(t))
		return
	}
	t.Run(name, func(t *testing.T) {
		want, ok := recorded[name]
		if !ok {
			t.Fatalf("no recorded digest for %s", name)
		}
		if got := digest(t); got != want {
			t.Errorf("digest %s, want %s", got, want)
		}
	})
}

// TestScaleDigest extends the oracle to radix 128, the smallest radix
// at which the output and credit-bus arbiters are arb.Tree (n > m^2 =
// 64) and the crosspoint and subswitch grids outgrow the caches — code
// no Variants(16, 2) row reaches. Every variant of the three grid
// architectures, the baseline and VOQ, VCs 4, packet lengths 1 and 3, loads 0.45 and 0.95
// (the latter against a 60-cycle drain), both injection modes, with the
// dense twin compared as above. The digests were recorded at commit
// b89d0b7, on the nested per-queue layout, before the routers' flit
// storage moved into one FIFO bank.
func TestScaleDigest(t *testing.T) {
	for _, a := range []router.Arch{router.ArchBaseline, router.ArchBuffered, router.ArchSharedXpoint,
		router.ArchHierarchical, router.ArchVOQ} {
		d, _ := router.Describe(a)
		for _, vt := range d.Variants(128, 4) {
			for _, inj := range []traffic.InjMode{traffic.InjPerCycle, traffic.InjGap} {
				name := fmt.Sprintf("%s/k128/%s", vt.Name, inj)
				o := Options{Router: vt.Config, Injection: inj, WarmupCycles: 100, MeasureCycles: 300}
				checkDigest(t, name, scaleDigests, func(t *testing.T) string {
					return foldDigest(t, o, []bool{false}, []int{1, 3}, []digestPoint{{1, 0.45, 0}, {1, 0.95, 60}})
				})
			}
		}
	}
}

var scaleDigests = map[string]string{
	"baseline-cva/k128/percycle":         "9c203a3549ea94ae7efb58c7f977857940a9e94c44a9ccb3ce8af621c026f5e2",
	"baseline-cva/k128/gap":              "9ab7fbc59014dababab56ce363908a32886a4e4192c167b6ac0bbd6a62c8f106",
	"baseline-ova/k128/percycle":         "edb3939c441189c6c71c8f7a25ec13d3487d716cc3b3722b2e2b4fddeddd6789",
	"baseline-ova/k128/gap":              "024e0e5738c32b2a376a5cf6dc8c60eda1531e0111cf7106a98fe6ca8b4be408",
	"baseline-prioritized/k128/percycle": "2cd4e3b0e1c5d7fdf714df3fbe76381a2fa19c3be6446ca3ee1e56312ecab9c4",
	"baseline-prioritized/k128/gap":      "8ada9aaf859a3496fc8c988aaf01f38a693200fa0ffceec29f616fe54fd6f72e",
	"buffered/k128/percycle":             "6b71041f96b56974c96db8bc1f4f3932dcc4508df95fa98a79c99b9638548dde",
	"buffered/k128/gap":                  "0e33ddb6e2434ac8f0f6bbd9d8908d0ec485d93435f9ef7785d9dc7da89f31e7",
	"buffered-ideal/k128/percycle":       "e25017e485c01cf404eaaa65c2b2e26902984bbc38952d6a6db4a6fbda244c60",
	"buffered-ideal/k128/gap":            "723c4b8c013b1aadcb6f516078a99e7e31a6235e783969b3e5b8cb6637cda783",
	"sharedxp/k128/percycle":             "40648e0e95f2b782d1e1024e94f432399ff282f3ab31aaaa3ee4de8850be8d0f",
	"sharedxp/k128/gap":                  "b54853e55789a824b36c7e07ee7d0514a5bc9c9bc94a0c58e4c54058833f665a",
	"hierarchical/k128/percycle":         "fb8123c1ca5af69a1eaf6f48dd04c490855f595eac618291391947c2149daa47",
	"hierarchical/k128/gap":              "37807af3baadd7805acf49d0a91159c45151c82e3207d8a28399936a90461094",
	"voq/k128/percycle":                  "b3be4da008f6826aff57618f30dc12f886e318a264d25ac90e8d53e2de7a978a",
	"voq/k128/gap":                       "9375d2a25e4796c1204fbd56acc4f709a6c3224edfa986b0af1188ac26c1dde5",
	"voq-iter2/k128/percycle":            "d19558e8d940abcbf553136fcb96ba9f1e3a63156771e6094cbc848d078cf269",
	"voq-iter2/k128/gap":                 "89a879bb1c03662fa24f9df561b2fdefd341e7153efbdd7495da0cf5e6b748b0",
}

var driverDigests = map[string]string{
	"lowradix/percycle/bernoulli":             "745fe853d4623984f4de081a5eb8424ad93e38db61ed9f27867c7228094935a5",
	"lowradix/percycle/bursty":                "b915b6ebceda304ba070ea0ac74fbd9c1e8944b6fec634f3643c0426d4c997e5",
	"lowradix/gap/bernoulli":                  "7874193f160fa7dee6123d5db60d45cd1721685479bcdca2ad5ab6c0b039e329",
	"baseline-cva/percycle/bernoulli":         "bb653b728c8fae16623f445612202aa3cb66a27ac70b757c609115d088efa58e",
	"baseline-cva/percycle/bursty":            "f6d651bdf0aab24b6e9c014ab23a6836231280f8e67091f3cc39ee7ebd7acac3",
	"baseline-cva/gap/bernoulli":              "91e04784635fa89732f0d317cbf051985b1c950ed1d8f101fc6195b0ffe01fae",
	"baseline-ova/percycle/bernoulli":         "7503079b335ee1b8e8bccbd4a1a41d9237eafa097607b6e54b003a528c261323",
	"baseline-ova/percycle/bursty":            "a9ecf35bd85c4cad5458e99ae816309f71fecd175cb795686757405660372ff3",
	"baseline-ova/gap/bernoulli":              "35917c44ca35da5395c749aaffb28b632aa94907f7079b4aebe944214b813f36",
	"baseline-prioritized/percycle/bernoulli": "ba33c3c48f682bc94644974911fe6b55a7eb25bca63097d2f12bea9dc75f059f",
	"baseline-prioritized/percycle/bursty":    "625a1342257c295a6048e114a91bda3ed7dd0321221c11bb685643cd5d8eeb58",
	"baseline-prioritized/gap/bernoulli":      "d5a9beafbe3fbdf90b1a7dba3f08ab1f4977c39eba5897fa782e8ee113d635ea",
	"buffered/percycle/bernoulli":             "b4e0d973bc33930372015e23d8724ddfa3881caa3818b166c05c1925e774cbba",
	"buffered/percycle/bursty":                "6cd240a4ee5c6f47dd307ffe88354efef75edba812d9a50344e0b67e8af5afb6",
	"buffered/gap/bernoulli":                  "569fb429b540092047870537a0b18687e55a1e1dc03d1c3a6516b9aa6b150800",
	"buffered-ideal/percycle/bernoulli":       "1bac71c15f387db3fba2762bb832b91cd13140a545c57f253f91940b48903a19",
	"buffered-ideal/percycle/bursty":          "731efcafc7231d4aeac904d8b4c0d74571c376bcd70359bd02a60ef8d5f00667",
	"buffered-ideal/gap/bernoulli":            "a825ae4ba0a8b67f4bc44b7a1d92669dfbc026b99876c287800eba7449c58f89",
	"sharedxp/percycle/bernoulli":             "db7d1a8d3ef8d8537c6c460b7ddfd25902dea05cad00ed8f1dc36b694db16cb3",
	"sharedxp/percycle/bursty":                "3109bfe45d6ea7ecb2325e7580ebd592c5e4ddb3d89e124b32740823d652d6b5",
	"sharedxp/gap/bernoulli":                  "964e12b6a0856114c76b169edeb60e1c466528f7ca2f446b15771205df68510b",
	"hierarchical/percycle/bernoulli":         "63f90fd4e5a7a9ac2d768f3dd8dc881fab8de8515339b33105c2681adab8aed5",
	"hierarchical/percycle/bursty":            "4e649d2e1c3a2c51584d9659611bee7578bcf8885730b222882fd3e0299437e1",
	"hierarchical/gap/bernoulli":              "4645653c55de86fffc2316bd9380bb1bbb9727984d62baa0237abccc389e173a",
	"voq/percycle/bernoulli":                  "7fa0b56bf1b2336130ad5f2b7297c7810887f398dac71c12ccfa87cb6f82b404",
	"voq/percycle/bursty":                     "042e96a7d72959337d66e7dc7ba90311067004baa3c6c3d3bb2c858faa0c342f",
	"voq/gap/bernoulli":                       "4f625700d285b838e88b660ad98efb2f2715a304536d6ca5b3cccb965bfeee58",
	"voq-iter2/percycle/bernoulli":            "ec7562479025c9dd2d0eb513c1af2efdc306481c6e764aa739f4e2a53523eb9a",
	"voq-iter2/percycle/bursty":               "c7585658ee6ec8a0355b5ff8d00365e4b12d4b78452c4b9e4c694e1379a06480",
	"voq-iter2/gap/bernoulli":                 "5969387666fe40c375ee3471b7ea6206667d3f4c2f1fa00a85d9cf71c9057f5e",
	"dynvc/percycle/bernoulli":                "1a5b366fd6f9392c92542b9044b617c303857dcd6bfbd6a96c82b6a7ae044326",
	"dynvc/percycle/bursty":                   "f8e7afae1ed62796f4abddad1331cd70bdc123f0e132cca0cd3918235a1af2e5",
	"dynvc/gap/bernoulli":                     "be6b779cdaa3f51b4873d809e0b381a2cd33bc8c5d9ea2e61833590ba53677be",
	"trace":                                   "3b766bdeec77a654fbf68c8ba88970fcf625162bbb3b87d0d78ed56f35337e7e",
}
