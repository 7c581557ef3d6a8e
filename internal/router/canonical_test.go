package router_test

import (
	"reflect"
	"testing"

	"highradix/internal/cache"
	"highradix/internal/router"
	"highradix/internal/testbench"
)

// routerKey is the cache key of a single-router point over cfg: the
// router configuration reaches a key only through the run it configures.
func routerKey(t *testing.T, cfg router.Config) cache.Key {
	t.Helper()
	k, ok := testbench.Options{Router: cfg, Load: 0.5}.CacheKey()
	if !ok {
		t.Fatalf("%+v: uncacheable", cfg)
	}
	return k
}

// TestCanonicalDefaultingInvariance pins that a sparse configuration
// and its fully-defaulted form key identically: cache keys must not
// depend on whether the caller spelled the defaults out.
func TestCanonicalDefaultingInvariance(t *testing.T) {
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		for _, v := range d.Variants(64, 0) {
			sparse := v.Config
			full := v.Config.WithDefaults()
			if got, want := routerKey(t, sparse), routerKey(t, full); got != want {
				t.Errorf("%s/%s: sparse and defaulted configs key differently:\n%s\n%s",
					d.Name, v.Name, got, want)
			}
		}
	}
}

// TestCanonicalCoversEveryField walks Config with reflection and
// asserts that mutating any field the key walker reaches changes the
// key, for a representative variant of every registered architecture.
// A field added to Config with a kind the walker or this test has no
// rule for fails here.
func TestCanonicalCoversEveryField(t *testing.T) {
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		vs := d.Variants(64, 0)
		if len(vs) == 0 {
			t.Fatalf("%s: no variants", d.Name)
		}
		base := vs[0].Config.WithDefaults()
		baseKey := routerKey(t, base)
		rt := reflect.TypeOf(base)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			// Observer must be nil for a run to be cacheable at all;
			// the uncacheable tests cover it.
			if f.Tag.Get("key") == "nil" {
				continue
			}
			mutated := base
			mv := reflect.ValueOf(&mutated).Elem().Field(i)
			switch mv.Kind() {
			case reflect.Int:
				mv.SetInt(mv.Int() + 1)
			case reflect.Bool:
				mv.SetBool(!mv.Bool())
			default:
				t.Fatalf("%s: field %s has kind %s with no mutation rule — add one",
					d.Name, f.Name, mv.Kind())
			}
			if routerKey(t, mutated) == baseKey {
				t.Errorf("%s: mutating field %s did not change the key", d.Name, f.Name)
			}
		}
	}
}

// TestCanonicalDistinctAcrossArchitectures is the cross-descriptor
// sanity check: every registered architecture's default variant keys
// distinctly.
func TestCanonicalDistinctAcrossArchitectures(t *testing.T) {
	seen := map[cache.Key]string{}
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		k := routerKey(t, router.Config{Arch: a})
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share a key: %s", prev, d.Name, k)
		}
		seen[k] = d.Name
	}
}
