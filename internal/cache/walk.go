package cache

import (
	"fmt"
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
