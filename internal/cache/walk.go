package cache

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strconv"
)

// KeyOf returns the content address of v, a fully defaulted options
// struct, in the namespace of v's type name. It walks every field,
// exported or not, in declaration order, through nested structs, slices,
// arrays and pointers; floats are written in shortest round-trip form,
// strings quoted. Two struct tags steer the walk:
//
//   - key:"-" skips a knob proven not to change a result byte (worker
//     counts, fast-forward, the store itself);
//   - key:"nil" marks a field that must be nil for the run to be
//     cacheable (traces, observers, hooks: serving from the store would
//     silently skip them); a non-nil one returns ok=false.
//
// An interface field is walked as its dynamic type's name and value when
// that type is declared in the interface's own package (the built-in
// traffic patterns and topologies); any other implementation returns
// ok=false, since its behaviour is arbitrary code no walk can describe.
// Any other field no walk can describe (a func, map or chan) panics
// until it is tagged, so a new field is never skipped silently.
func KeyOf(v any) (key Key, ok bool) {
	rv := reflect.ValueOf(v)
	var w walker
	if !w.walk(rv, rv.Type().String()) {
		return "", false
	}
	return NewKey(rv.Type().String()).Field("options", string(w.b)).Key(), true
}

// walker renders a value's canonical description into b.
type walker struct{ b []byte }

// walk appends v's description and reports whether v is cacheable; name
// is the enclosing field, for the panic message.
func (w *walker) walk(v reflect.Value, name string) bool {
	switch v.Kind() {
	case reflect.Bool:
		w.b = strconv.AppendBool(w.b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		w.b = strconv.AppendInt(w.b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		w.b = strconv.AppendUint(w.b, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		w.b = strconv.AppendFloat(w.b, v.Float(), 'g', -1, 64)
	case reflect.String:
		w.b = strconv.AppendQuote(w.b, v.String())
	case reflect.Pointer:
		if v.IsNil() {
			w.b = append(w.b, "nil"...)
			return true
		}
		return w.walk(v.Elem(), name)
	case reflect.Interface:
		if v.IsNil() {
			w.b = append(w.b, "nil"...)
			return true
		}
		e := v.Elem()
		decl := e.Type()
		if decl.Kind() == reflect.Pointer {
			decl = decl.Elem()
		}
		if decl.PkgPath() != v.Type().PkgPath() {
			return false
		}
		w.b = append(w.b, e.Type().String()...)
		return w.walk(e, name)
	case reflect.Slice, reflect.Array:
		w.b = append(w.b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			if !w.walk(v.Index(i), name) {
				return false
			}
		}
		w.b = append(w.b, ']')
	case reflect.Struct:
		t := v.Type()
		w.b = append(w.b, '{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			switch f.Tag.Get("key") {
			case "-":
				continue
			case "nil":
				if !v.Field(i).IsNil() {
					return false
				}
				continue
			}
			w.b = append(append(w.b, f.Name...), '=')
			if !w.walk(v.Field(i), f.Name) {
				return false
			}
			w.b = append(w.b, ';')
		}
		w.b = append(w.b, '}')
	default:
		panic(fmt.Sprintf(`cache: field %s of kind %s has no key description: tag it key:"-" or key:"nil"`, name, v.Kind()))
	}
	return true
}

// Encode renders v, a struct of float64, int/int64 and bool fields, as
// a stored result: a layout version byte 1, then each field in
// declaration order as 8 big-endian bytes (IEEE-754 bits for a float,
// two's complement for an integer, 0 or 1 for a bool). The encoding is
// exact — Decode gives back a value == to v — which is what makes cached
// and recomputed tables byte-identical. A field of any other kind
// panics, as the key walker does, so no field is ever dropped silently.
func Encode(v any) []byte {
	rv := reflect.ValueOf(v)
	b := append(make([]byte, 0, 1+8*rv.NumField()), 1)
	for i := 0; i < rv.NumField(); i++ {
		var u uint64
		switch f := rv.Field(i); codecKind(rv.Type(), i) {
		case reflect.Float64:
			u = math.Float64bits(f.Float())
		case reflect.Int64:
			u = uint64(f.Int())
		case reflect.Bool:
			if f.Bool() {
				u = 1
			}
		}
		b = binary.BigEndian.AppendUint64(b, u)
	}
	return b
}

// Decode inverts Encode into the struct v points to. A payload of the
// wrong length or layout version is an error; callers treat it as a
// miss and recompute.
func Decode(b []byte, v any) error {
	rv := reflect.ValueOf(v).Elem()
	n := rv.NumField()
	if len(b) != 1+8*n || b[0] != 1 {
		return fmt.Errorf("cache: bad encoded %s (%d bytes)", rv.Type(), len(b))
	}
	for i := 0; i < n; i++ {
		u := binary.BigEndian.Uint64(b[1+8*i:])
		switch f := rv.Field(i); codecKind(rv.Type(), i) {
		case reflect.Float64:
			f.SetFloat(math.Float64frombits(u))
		case reflect.Int64:
			f.SetInt(int64(u))
		case reflect.Bool:
			f.SetBool(u != 0)
		}
	}
	return nil
}

// codecKind is the encoding of field i of struct type t: Float64, Int64
// (for int too) or Bool. Any other kind panics.
func codecKind(t reflect.Type, i int) reflect.Kind {
	f := t.Field(i)
	switch k := f.Type.Kind(); k {
	case reflect.Float64, reflect.Bool:
		return k
	case reflect.Int, reflect.Int64:
		return reflect.Int64
	}
	panic(fmt.Sprintf("cache: field %s.%s of kind %s has no result encoding", t, f.Name, f.Type.Kind()))
}
