package cache_test

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"highradix/internal/cache"
	"highradix/internal/experiments"
	"highradix/internal/network"
	"highradix/internal/router"
	"highradix/internal/testbench"
	"highradix/internal/traffic"
)

// patternNames are the built-in patterns, as the CLIs name them.
var patternNames = []string{"uniform", "diagonal", "hotspot", "worstcase", "bitcomp", "bitrev", "transpose", "shuffle"}

// tbOptions is a fully spelled single-router run with no field at its
// default, so every mutation below survives defaulting.
func tbOptions(t *testing.T, pattern string) *testbench.Options {
	p, err := traffic.ByName(pattern, 16, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return &testbench.Options{
		Router: router.Config{Arch: router.ArchBaseline, Radix: 16, VCs: 2, InputBufDepth: 8,
			XpointBufDepth: 2, SubSize: 4, STCycles: 2, LocalGroup: 4,
			AllocIters: 2, VA: router.OVA, SpecPolicy: router.SpecHash, Prioritized: true, IdealCredit: true},
		Pattern: p, Bursty: true, Load: 0.5, PktLen: 2,
		WarmupCycles: 100, MeasureCycles: 200, DrainCycles: 900, SatLatency: 500, Seed: 1,
		Check: true, Injection: traffic.InjGap,
	}
}

// netOptions is a fully spelled network run over a Clos spelled as Net,
// or over topo when one is given.
func netOptions(topo network.Topology) *network.Options {
	return &network.Options{
		Net:  network.Config{Radix: 4, Digits: 2, VCs: 2, BufDepth: 4},
		Topo: topo, Load: 0.5, PktLen: 2, WarmupCycles: 100, MeasureCycles: 200, DrainCycles: 900,
		SatLatency: 500, Seed: 1, Pattern: traffic.NewUniform(16), Injection: traffic.InjGap,
	}
}

// mustTopo unwraps a topology constructor; the shapes here are valid.
func mustTopo[T network.Topology](topo T, err error) network.Topology {
	if err != nil {
		panic(err)
	}
	return topo
}

// leaf is one scalar the walker reaches, settable in place.
type leaf struct {
	path string
	v    reflect.Value
	// free marks a leaf under a key:"-" tag: it must not move the key.
	free bool
}

// leaves lists every scalar (and nil pointer) under v in walk order,
// through unexported fields, pointers and non-nil interfaces; fields
// tagged key:"nil" are the uncacheable tests' business and are skipped.
func leaves(v reflect.Value, path string, free bool, out []leaf) []leaf {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			tag := f.Tag.Get("key")
			if tag == "nil" {
				continue
			}
			fv := v.Field(i)
			if !fv.CanSet() {
				fv = reflect.NewAt(fv.Type(), unsafe.Pointer(fv.UnsafeAddr())).Elem()
			}
			out = leaves(fv, path+"."+f.Name, free || tag == "-", out)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return append(out, leaf{path, v, free})
		}
		return leaves(v.Elem(), path, free, out)
	case reflect.Interface:
		if !v.IsNil() {
			return leaves(v.Elem().Elem(), path+"("+v.Elem().Type().String()+")", free, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), free, out)
		}
	default:
		return append(out, leaf{path, v, free})
	}
	return out
}

// mutate changes one leaf to a different value no defaulting maps back.
func mutate(t *testing.T, l leaf) {
	switch v := l.v; v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 2)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 2)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	default:
		t.Fatalf("%s: no mutation rule for kind %s — add one", l.path, v.Kind())
	}
}

// figurePoints runs fig9 and fig19 at s over a fresh store and keys the
// set of point keys they stored: what a Scale contributes to the store.
func figurePoints(t *testing.T, v any) (cache.Key, bool) {
	s := *v.(*experiments.Scale)
	st, err := cache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = st
	for _, name := range []string{"fig9", "fig19"} {
		if _, _, err := experiments.Table(name, s); err != nil {
			t.Errorf("%s: %v", name, err)
			return "", false
		}
	}
	var stored []string
	err = filepath.WalkDir(st.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			stored = append(stored, d.Name())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cache.NewKey("figure points").Field("keys", strings.Join(stored, ",")).Key(), true
}

// TestWalkerKeys is the one forgotten-field test of every result key.
// For each root the cache keys — single-router points over every
// built-in pattern, network points over a Clos spelled as Net or as Topo
// and over a torus, and the points a figure stores for a Scale — it
// finds every leaf the walker reaches (inside router.Config,
// network.Config, TorusConfig and the pattern structs too), mutates
// that leaf alone on a fresh value, and requires the key to move; a leaf
// under key:"-", or named free by its root, must leave it alone.
func TestWalkerKeys(t *testing.T) {
	type root struct {
		name  string
		fresh func(*testing.T) any
		key   func(*testing.T, any) (cache.Key, bool)
		// ignored names a field the run itself ignores.
		ignored string
		// free lists the fields proven not to change a result byte.
		free []string
	}
	tbKey := func(_ *testing.T, v any) (cache.Key, bool) { return v.(*testbench.Options).CacheKey() }
	netKey := func(_ *testing.T, v any) (cache.Key, bool) { return v.(*network.Options).CacheKey() }
	var roots []root
	for _, p := range patternNames {
		roots = append(roots, root{name: "testbench/" + p, fresh: func(t *testing.T) any { return tbOptions(t, p) }, key: tbKey})
	}
	roots = append(roots,
		root{name: "network/net", fresh: func(*testing.T) any { return netOptions(nil) }, key: netKey},
		root{name: "network/clos", key: netKey, ignored: ".Net", fresh: func(*testing.T) any {
			return netOptions(mustTopo(network.NewClos(netOptions(nil).Net)))
		}},
		root{name: "network/torus", key: netKey, ignored: ".Net", fresh: func(*testing.T) any {
			return netOptions(mustTopo(network.NewTorus(network.TorusConfig{X: 4, Y: 2, VCs: 2, BufDepth: 4})))
		}},
		root{name: "figure", key: figurePoints, free: []string{".Workers", ".Cache", ".dense", ".shards", ".missed"},
			fresh: func(*testing.T) any {
				return &experiments.Scale{Warmup: 100, Measure: 200, Loads: []float64{0.2, 0.5},
					NetLoads: []float64{0.3}, NetWarmup: 50, NetMeasure: 60, Seed: 3,
					Workers: 2}
			}},
	)
	for _, r := range roots {
		t.Run(r.name, func(t *testing.T) {
			base, ok := r.key(t, r.fresh(t))
			if !ok {
				t.Fatal("base options uncacheable")
			}
			n := len(leaves(reflect.ValueOf(r.fresh(t)).Elem(), "", false, nil))
			for i := 0; i < n; i++ {
				v := r.fresh(t)
				l := leaves(reflect.ValueOf(v).Elem(), "", false, nil)[i]
				mutate(t, l)
				l.free = l.free || slices.Contains(r.free, l.path)
				k, ok := r.key(t, v)
				switch {
				case r.ignored != "" && strings.HasPrefix(l.path, r.ignored):
				case !ok:
					t.Errorf("%s: mutated options uncacheable", l.path)
				case l.free && k != base:
					t.Errorf(`%s is tagged key:"-" but moved the key`, l.path)
				case !l.free && k == base:
					t.Errorf("%s: mutation left the key unchanged", l.path)
				}
			}
		})
	}
}

// TestWalkerKeysDistinct covers what one-leaf mutations cannot: every
// registered architecture variant, every built-in pattern (and the nil
// default), every topology family and shape and every experiment name
// keys distinctly; Hotspot lists that would print alike without
// separators key apart; and the spellings a run does not distinguish —
// a sparse or defaulted router, defaulted network phases, a Clos as Net
// or as Topo — share a key.
func TestWalkerKeysDistinct(t *testing.T) {
	seen := map[cache.Key]string{}
	distinct := func(what string, k cache.Key, ok bool) {
		t.Helper()
		if !ok {
			t.Errorf("%s: uncacheable", what)
		} else if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share a key", prev, what)
		}
		seen[k] = what
	}
	same := func(what string, a, b cache.Key, aok, bok bool) {
		t.Helper()
		if !aok || !bok || a != b {
			t.Errorf("%s: keys differ (%s ok=%v, %s ok=%v)", what, a, aok, b, bok)
		}
	}
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		for _, v := range d.Variants(64, 0) {
			sparse := testbench.Options{Router: v.Config, Load: 0.5}
			spelled := sparse
			spelled.Router = v.Config.WithDefaults()
			k, ok := sparse.CacheKey()
			k2, ok2 := spelled.CacheKey()
			same(v.Name+" sparse vs defaulted router", k, k2, ok, ok2)
			distinct("router "+v.Name, k, ok)
		}
	}
	for _, p := range patternNames {
		k, ok := tbOptions(t, p).CacheKey()
		distinct("pattern "+p, k, ok)
	}
	o := tbOptions(t, "uniform")
	o.Pattern = nil
	k, ok := o.CacheKey()
	distinct("the default pattern", k, ok)
	for _, hs := range [][]int{{1, 2}, {12}, {1, 2, 0}} {
		o := tbOptions(t, "uniform")
		o.Pattern = &traffic.Hotspot{K: 16, Hotspots: hs}
		k, ok := o.CacheKey()
		distinct(fmt.Sprint("hotspots ", hs), k, ok)
	}
	for _, topo := range []network.Topology{
		mustTopo(network.NewClos(network.Config{Radix: 4, Digits: 2})),
		mustTopo(network.NewClos(network.Config{Radix: 4, Digits: 3})),
		mustTopo(network.NewTorus(network.TorusConfig{X: 16, Y: 1})),
		mustTopo(network.NewTorus(network.TorusConfig{X: 8, Y: 1})),
		mustTopo(network.NewTorus(network.TorusConfig{X: 4, Y: 4})),
		mustTopo(network.NewTorus(network.TorusConfig{X: 2, Y: 8})),
	} {
		k, ok := network.Options{Topo: topo, Load: 0.5}.CacheKey()
		distinct(fmt.Sprintf("topology %s/%d", topo.Name(), topo.Routers()), k, ok)
	}

	sparse := network.Options{Net: network.Config{Radix: 4, Digits: 2}, Load: 0.5, Seed: 1}
	spelled := sparse.WithDefaults()
	spelled.Net = spelled.Net.WithDefaults()
	k, ok = sparse.CacheKey()
	k2, ok2 := spelled.CacheKey()
	same("sparse vs defaulted network options", k, k2, ok, ok2)
	asTopo := sparse
	asTopo.Net, asTopo.Topo = network.Config{}, mustTopo(network.NewClos(sparse.Net))
	k2, ok2 = asTopo.CacheKey()
	same("Clos as Net vs as Topo", k, k2, ok, ok2)
}

// TestCodec pins the stored-result encoding: an exact round trip, and a
// truncated payload or another layout version is an error, not a value.
// A field kind with no encoding panics on both sides.
func TestCodec(t *testing.T) {
	type result struct {
		F float64
		I int
		J int64
		B bool
	}
	want := result{F: -0.1, I: -3, J: 1 << 40, B: true}
	good := cache.Encode(want)
	wrongVersion := append([]byte{2}, good[1:]...)
	for _, c := range []struct {
		name    string
		payload []byte
		ok      bool
	}{
		{"round trip", good, true},
		{"truncated", good[:len(good)-1], false},
		{"wrong version", wrongVersion, false},
	} {
		var got result
		err := cache.Decode(c.payload, &got)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && got != want {
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, want)
		}
	}
	type unsupported struct {
		F float64
		S string
	}
	for name, f := range map[string]func(){
		"encode": func() { cache.Encode(unsupported{}) },
		"decode": func() { cache.Decode(append([]byte{1}, make([]byte, 16)...), &unsupported{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of a string field did not panic", name)
				}
			}()
			f()
		}()
	}
}
