package core

// Serializer models a port that carries one flit every STCycles cycles:
// input rows, output columns, subswitch ports. FreeAt is exported so
// allocators with bespoke timing (the baseline's wire-delayed grant
// horizon) can reason about and reserve the port directly.
type Serializer struct{ FreeAt int64 }

// Free reports whether the port is idle at cycle now.
func (s *Serializer) Free(now int64) bool { return s.FreeAt <= now }

// Reserve occupies the port for cycles cycles starting at now.
func (s *Serializer) Reserve(now int64, cycles int) { s.FreeAt = now + int64(cycles) }

// SerializerBank is one serializer per port, stored contiguously.
type SerializerBank []Serializer

// NewSerializerBank returns a bank of n idle serializers.
func NewSerializerBank(n int) SerializerBank { return make(SerializerBank, n) }

// Free reports whether port i is idle at cycle now.
func (b SerializerBank) Free(i int, now int64) bool { return b[i].Free(now) }

// Reserve occupies port i for cycles cycles starting at now.
func (b SerializerBank) Reserve(i int, now int64, cycles int) { b[i].Reserve(now, cycles) }
