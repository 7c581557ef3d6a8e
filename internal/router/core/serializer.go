package core

// SerializerBank models ports that each carry one flit every STCycles
// cycles: a router's input and output ports (Base.InPort, Base.OutPort)
// and the hierarchical crossbar's subswitch ports. Entry i is the cycle
// port i is busy until.
type SerializerBank []int64

// NewSerializerBank returns a bank of n idle serializers.
func NewSerializerBank(n int) SerializerBank { return make(SerializerBank, n) }

// Free reports whether port i is idle at cycle now.
func (b SerializerBank) Free(i int, now int64) bool { return b[i] <= now }

// Reserve occupies port i for cycles cycles starting at now. A
// reservation of 0 cycles holds the port until now: it is free again
// from cycle now on, and not before.
func (b SerializerBank) Reserve(i int, now int64, cycles int) { b[i] = now + int64(cycles) }
