// Package cache is a content-addressed, on-disk store for simulation
// results. Every figure this repository regenerates is a pure function
// of its fully-defaulted configuration — the determinism suites
// (parallel sweep, fast-forward twins, sharded network) prove that
// identical options produce byte-identical results — so a result can be
// memoized under a hash of the canonical description of the run that
// produced it and served forever without re-simulating.
//
// The soundness argument, spelled out once:
//
//	determinism  ⇒  equal canonical options  ⇒  equal result bytes
//	key = H(Behaviour, canonical options)  ⇒  key equality ⇐ option equality
//
// The converse (a hash collision mapping distinct options to one key)
// is guarded by SHA-256. What invalidates a key is therefore exactly a
// semantic change: any differing option field, or a change to the
// repository's recorded behaviour (Behaviour, regenerated from the
// digest oracles and figure goldens), which re-addresses every key at
// once.
//
// Three layers compose:
//
//   - KeyOf walks an options struct into a Key (walk.go), through the
//     one KeyBuilder: a canonical, name-sorted listing of (field, value)
//     pairs under Behaviour, hashed.
//   - Store maps Keys to payload bytes on disk, with an integrity
//     checksum over every entry; a corrupted or truncated entry is
//     detected on read and treated as a miss (and removed), never
//     served.
//   - GetOrCompute adds single-flight dedup: any number of concurrent
//     requests for one cold key run the compute function exactly once
//     and all receive the same bytes.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Key is the content address of one cached entry: the hex SHA-256 of a
// canonical option description. The zero Key marks an uncacheable run
// (options that cannot be canonicalized — traces, observers, custom
// patterns); Store methods reject it.
type Key string

// KeyBuilder accumulates the (field, value) pairs describing one run
// and hashes them into a Key. Field order does not matter: the builder
// sorts by field name before hashing, which is what makes the key
// invariant under config-defaulting order and Go map iteration order.
type KeyBuilder struct {
	namespace string
	fields    []keyField
}

type keyField struct{ name, value string }

// NewKey starts a key in the given namespace (KeyOf uses the walked
// type's name). The namespace participates in the hash, so two kinds of
// result never share an address.
func NewKey(namespace string) *KeyBuilder {
	return &KeyBuilder{namespace: namespace}
}

// Field records one named component of the key. Field names must be
// unique within a builder; a duplicate is a programming error (it would
// make the canonical form ambiguous) and panics.
func (b *KeyBuilder) Field(name, value string) *KeyBuilder {
	if strings.ContainsAny(name, "=\n") {
		panic("cache: key field name contains reserved separator: " + name)
	}
	for _, f := range b.fields {
		if f.name == name {
			panic("cache: duplicate key field " + name)
		}
	}
	b.fields = append(b.fields, keyField{name: name, value: value})
	return b
}

// Fieldf records a formatted field value.
func (b *KeyBuilder) Fieldf(name, format string, args ...any) *KeyBuilder {
	return b.Field(name, fmt.Sprintf(format, args...))
}

// Canonical renders Behaviour, the namespace and the sorted field list —
// the exact bytes that are hashed. Exposed for tests and debugging;
// production callers use Key.
func (b *KeyBuilder) Canonical() string {
	fields := append([]keyField(nil), b.fields...)
	sort.Slice(fields, func(i, j int) bool { return fields[i].name < fields[j].name })
	var sb strings.Builder
	sb.WriteString("behaviour=" + Behaviour + "\nnamespace=")
	sb.WriteString(b.namespace)
	sb.WriteByte('\n')
	for _, f := range fields {
		sb.WriteString(f.name)
		sb.WriteByte('=')
		// Escape newlines so a value cannot forge a field boundary.
		sb.WriteString(strings.ReplaceAll(f.value, "\n", "\\n"))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Key hashes the canonical form.
func (b *KeyBuilder) Key() Key {
	sum := sha256.Sum256([]byte(b.Canonical()))
	return Key(hex.EncodeToString(sum[:]))
}
