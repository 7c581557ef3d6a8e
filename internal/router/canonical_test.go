package router

import (
	"reflect"
	"testing"
)

// TestCanonicalDefaultingInvariance pins that a sparse configuration
// and its fully-defaulted form canonicalize identically: cache keys
// must not depend on whether the caller spelled the defaults out.
func TestCanonicalDefaultingInvariance(t *testing.T) {
	for _, a := range Registered() {
		d, _ := Describe(a)
		for _, v := range d.Variants(64, 0) {
			sparse := v.Config
			full := v.Config.WithDefaults()
			if got, want := sparse.Canonical(), full.Canonical(); got != want {
				t.Errorf("%s/%s: sparse and defaulted configs canonicalize differently:\n%s\n%s",
					d.Name, v.Name, got, want)
			}
		}
	}
}

// TestCanonicalCoversEveryField walks Config with reflection and
// asserts that mutating any semantically distinct field changes the
// canonical form, for a representative variant of every registered
// architecture. A field added to Config without a Canonical entry (or
// an explicit exclusion below) fails this test.
func TestCanonicalCoversEveryField(t *testing.T) {
	// Observer is diagnostic-only: it cannot change a result byte, so
	// it is deliberately excluded from the canonical form.
	excluded := map[string]bool{"Observer": true}

	for _, a := range Registered() {
		d, _ := Describe(a)
		vs := d.Variants(64, 0)
		if len(vs) == 0 {
			t.Fatalf("%s: no variants", d.Name)
		}
		base := vs[0].Config.WithDefaults()
		baseCanon := base.Canonical()
		rt := reflect.TypeOf(base)
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if excluded[f.Name] {
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
				t.Fatalf("%s: field %s has kind %s with no mutation rule — add one (and a Canonical entry)",
					d.Name, f.Name, mv.Kind())
			}
			if mutated.Canonical() == baseCanon {
				t.Errorf("%s: mutating field %s did not change Canonical()", d.Name, f.Name)
			}
		}
	}
}

// TestCanonicalDistinctAcrossArchitectures is the cross-descriptor
// sanity check: every registered architecture's default variant
// canonicalizes to a distinct string.
func TestCanonicalDistinctAcrossArchitectures(t *testing.T) {
	seen := map[string]string{}
	for _, a := range Registered() {
		d, _ := Describe(a)
		c := Config{Arch: a}.Canonical()
		if prev, dup := seen[c]; dup {
			t.Errorf("%s and %s share a canonical form: %s", prev, d.Name, c)
		}
		seen[c] = d.Name
	}
}
