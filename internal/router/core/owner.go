package core

// VCOwnerTable tracks which packet currently owns each output virtual
// channel. A packet acquires the VC with its head flit and releases it
// when the tail departs — the per-packet VC allocation of Section 3.
// The global table of a router and the local tables of hierarchical
// subswitches are the same structure at different port counts.
type VCOwnerTable struct {
	owner []uint64 // flat [port*vcs+vc]; 0 = free
	free  []uint64 // per port: bit vc raised while (port, vc) is unowned
	vcs   int
}

// MakeVCOwnerTable returns a table over ports x vcs channels by value,
// for embedding.
func MakeVCOwnerTable(ports, vcs int) VCOwnerTable {
	if vcs > 64 {
		Violatef("VC owner table over %d VCs exceeds the one-word mask limit", vcs)
	}
	t := VCOwnerTable{owner: make([]uint64, ports*vcs), free: make([]uint64, ports), vcs: vcs}
	all := ^uint64(0) >> (64 - uint(vcs))
	for p := range t.free {
		t.free[p] = all
	}
	return t
}

// FreeVC reports whether (port, vc) is unowned.
func (t *VCOwnerTable) FreeVC(port, vc int) bool { return t.owner[port*t.vcs+vc] == 0 }

// FreeMask returns the port's unowned VCs as a packed word (bit vc
// raised iff (port, vc) is free). It is maintained at Acquire/Release,
// so the routers' head-eligibility scans read one word per port instead
// of calling FreeVC per VC every cycle.
func (t *VCOwnerTable) FreeMask(port int) uint64 { return t.free[port] }

// OwnedBy reports whether packet pkt owns (port, vc).
func (t *VCOwnerTable) OwnedBy(port, vc int, pkt uint64) bool { return t.owner[port*t.vcs+vc] == pkt }

// Acquire claims (port, vc) for packet pkt. Claiming an owned VC is a
// flow-control violation.
func (t *VCOwnerTable) Acquire(port, vc int, pkt uint64) {
	if cur := t.owner[port*t.vcs+vc]; cur != 0 {
		Violatef("output VC double allocation: packet %d acquiring port %d VC %d owned by packet %d",
			pkt, port, vc, cur)
	}
	t.owner[port*t.vcs+vc] = pkt
	t.free[port] &^= 1 << uint(vc)
}

// Release frees (port, vc), which packet pkt must own.
func (t *VCOwnerTable) Release(port, vc int, pkt uint64) {
	if cur := t.owner[port*t.vcs+vc]; cur != pkt {
		Violatef("output VC released by non-owner: packet %d releasing port %d VC %d owned by packet %d",
			pkt, port, vc, cur)
	}
	t.owner[port*t.vcs+vc] = 0
	t.free[port] |= 1 << uint(vc)
}
