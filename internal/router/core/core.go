// Package core is the shared datapath substrate composed by every
// router microarchitecture in internal/router. The paper (Sections 3-5)
// develops its designs incrementally: each architecture adds an
// *allocation strategy* on top of the same physical primitives — input
// virtual-channel buffers with credit-based flow control, per-flit
// serialized switch ports, per-packet output-VC ownership, and an
// ejection pipeline that models switch traversal time. This package
// owns those primitives once:
//
//   - FIFOBank: n bounded flit FIFOs of one depth over one slot slab —
//     the only flit storage of every buffer grid (input VCs, crosspoint
//     buffers, subswitch buffers, virtual output queues), made only by
//     Base.MakeFIFOBank, which counts its slots toward Base.Storage.
//   - InputBank: the input VC buffers of all ports, with the cached
//     head-of-line state (Front) the allocators read every cycle, the
//     per-input full bitsets behind CanAccept, and the occupied active
//     set; request lines and their bookkeeping are the baseline's own.
//   - Ledger: a credit ledger owning every spend/return path of one
//     family of credit-counted buffer pools; it maintains the counts
//     and emits the EvCredit audit events itself.
//   - CreditBus: the shared per-row credit-return buses of Section 5.2,
//     all rows in one bank stepped over its busy-row set.
//   - EjectPipe: the fixed-delay ejection pipeline; it releases output
//     VC ownership at tail flits, emits EvEject, and collects the
//     cycle's ejected flits under the recycling contract documented on
//     router.Router.Ejected.
//   - VCOwnerTable: per-packet output virtual-channel ownership
//     (acquired by the head flit, released by the tail — Section 3).
//   - SerializerBank: ports carrying one flit every STCycles cycles.
//   - ActiveSet: occupancy-counted bitsets so per-cycle loops visit
//     only indices holding work.
//   - Base: the composition of bank + pipe + owner table, with the
//     switch ports every architecture shares (each input's VC round
//     robin, the input and output serializers), providing the
//     injection side (CanAccept/Accept), Ejected, InFlight and Storage
//     shared by all architectures.
//
// Event, Observer and the nil-guarded Obs emitter live here too, so
// core components can emit audit events without importing the router
// package; package router aliases them, keeping its public surface
// unchanged.
//
// Everything in this package is allocation-free on the per-cycle hot
// path and deliberately free of switch allocation policy: nothing here
// allocates a switch port or an output VC, NACKs, or speculates. The
// one arbitration it does is CreditBus's, among the crosspoints of a
// row for the row's credit-return bus — part of the flow-control
// datapath of Section 5.2, not an allocation policy. Architectures
// differ only in the allocation logic they layer on top, which is what
// keeps a new variant an allocation-policy diff rather than a datapath
// fork.
package core
