package check

// The flow rules: the Checker's live flit set, pointer identity and
// per-packet sequencing, which hold for a router and a network alike.

import (
	"highradix/internal/flit"
)

// flitKey identifies a logical flit independently of the memory that
// carries it, which is what lets the checker catch free-list aliasing:
// the same *flit.Flit may legally host many logical flits over a run,
// but never two at once.
type flitKey struct {
	pkt uint64
	seq int
}

// pktState tracks one packet between its first accepted flit and its
// last ejected flit.
type pktState struct {
	src, dst, length int
	nextAccept       int
	nextEject        int
}

// admit enters a flit into the live set, validating identity, shape,
// aliasing and per-packet accept order. It returns the violation, or
// nil when the flit is clean.
func (c *Checker) admit(cycle int64, f *flit.Flit) *Violation {
	if f == nil {
		return vio(cycle, "flit.nil", "accept of a nil flit")
	}
	if f.PacketID == 0 {
		return vio(cycle, "flit.id", "%v: packet ID 0 is reserved as the free-VC sentinel", f)
	}
	if f.PacketLen < 1 || f.Seq < 0 || f.Seq >= f.PacketLen {
		return vio(cycle, "flit.shape", "%v: seq outside packet length %d", f, f.PacketLen)
	}
	if f.Head != (f.Seq == 0) || f.Tail != (f.Seq == f.PacketLen-1) {
		return vio(cycle, "flit.shape", "%v: head/tail flags disagree with seq %d of %d", f, f.Seq, f.PacketLen)
	}
	key := flitKey{f.PacketID, f.Seq}
	if _, ok := c.live[key]; ok {
		return vio(cycle, "conservation.duplicate", "%v accepted twice without an eject in between", f)
	}
	if old, ok := c.byPtr[f]; ok {
		return vio(cycle, "conservation.alias",
			"%v reuses the memory of live flit pkt=%d seq=%d (recycled while in flight)", f, old.pkt, old.seq)
	}
	ps := c.pkts[f.PacketID]
	if ps == nil {
		ps = &pktState{src: f.Src, dst: f.Dst, length: f.PacketLen}
		c.pkts[f.PacketID] = ps
	} else if ps.src != f.Src || ps.dst != f.Dst || ps.length != f.PacketLen {
		return vio(cycle, "flit.shape",
			"%v disagrees with its packet's earlier flits (src=%d dst=%d len=%d)", f, ps.src, ps.dst, ps.length)
	}
	if f.Seq != ps.nextAccept {
		return vio(cycle, "order.accept", "%v accepted out of order (expected seq %d)", f, ps.nextAccept)
	}
	ps.nextAccept++
	c.live[key] = f
	c.byPtr[f] = key
	c.liveCount++
	return nil
}

// release removes a flit from the live set, validating that it was
// accepted, that its identity did not mutate in flight, and that its
// packet's flits leave in sequence.
func (c *Checker) release(cycle int64, f *flit.Flit) *Violation {
	if f == nil {
		return vio(cycle, "flit.nil", "eject of a nil flit")
	}
	key, ok := c.byPtr[f]
	if !ok {
		return vio(cycle, "conservation.loss", "%v ejected but is not live (never accepted, or ejected twice)", f)
	}
	if key.pkt != f.PacketID || key.seq != f.Seq {
		return vio(cycle, "conservation.alias",
			"%v ejected but this memory was accepted as pkt=%d seq=%d", f, key.pkt, key.seq)
	}
	ps := c.pkts[f.PacketID]
	if f.Seq != ps.nextEject {
		return vio(cycle, "order.packet", "%v ejected out of order (expected seq %d)", f, ps.nextEject)
	}
	ps.nextEject++
	if ps.nextEject == ps.length {
		delete(c.pkts, f.PacketID)
		c.delivered++
	}
	delete(c.live, key)
	delete(c.byPtr, f)
	c.liveCount--
	return nil
}

// drained asserts the live set is empty — every accepted flit was
// ejected. Called after a run has been given time to drain completely.
func (c *Checker) drained(cycle int64) *Violation {
	if c.liveCount == 0 {
		return nil
	}
	f := c.oldestLive()
	return vio(cycle, "conservation.drain",
		"%d flits were accepted but never ejected; oldest is %v, injected at cycle %d", c.liveCount, f, f.InjectedAt)
}

// oldestLive returns the live flit with the earliest injection cycle
// (ties broken on (pkt, seq) so the report is deterministic), or nil
// when the live set is empty. Used for violation certificates only, so
// the linear scan is fine.
func (c *Checker) oldestLive() *flit.Flit {
	var best *flit.Flit
	var bestKey flitKey
	for key, f := range c.live {
		if best == nil || f.InjectedAt < best.InjectedAt ||
			f.InjectedAt == best.InjectedAt &&
				(key.pkt < bestKey.pkt || key.pkt == bestKey.pkt && key.seq < bestKey.seq) {
			best, bestKey = f, key
		}
	}
	return best
}
