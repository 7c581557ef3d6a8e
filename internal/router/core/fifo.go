package core

import "highradix/internal/flit"

// FIFOBank is a bank of bounded flit FIFOs of one depth: FIFO i is a
// ring over slots [i*depth, (i+1)*depth) of one contiguous slab, with
// its head cursor and length packed side by side in one small array. It
// is the flit storage of every buffer grid in the routers — input VCs,
// crosspoint buffers, subswitch input and output buffers, virtual
// output queues — so a radix-256 crossbar's quarter of a million queues
// are three allocations instead of two heap objects apiece, and an
// operation touches one cursor line and one slot line instead of
// chasing a queue header to its own ring.
//
// Slots stay pointer-sized on purpose: flits are recycled and hot, and
// the routers mirror the header bits their scans read (Front, the
// crosspoint and subswitch head masks), so a header-carrying slot would
// only multiply the k^2-sized slab.
type FIFOBank struct {
	depth int
	slots []*flit.Flit
	cur   []fifoCursor
}

type fifoCursor struct{ head, n uint16 }

// MaxFIFODepth is the deepest FIFO a bank's 16-bit cursors address.
const MaxFIFODepth = 1<<16 - 1

// MakeFIFOBank returns a bank of n empty FIFOs holding up to depth flits
// each, by value for embedding, and adds its n*depth slots to the
// router's Storage. Banks are made only here, so a router's storage is
// the sum of the buffers it built and is stated nowhere else.
func (b *Base) MakeFIFOBank(n, depth int) FIFOBank {
	if depth < 1 || depth > MaxFIFODepth {
		Violatef("FIFO depth %d outside [1, %d]", depth, MaxFIFODepth)
	}
	b.storage += n * depth
	return FIFOBank{depth: depth, slots: make([]*flit.Flit, n*depth), cur: make([]fifoCursor, n)}
}

// Len returns the occupancy of FIFO i.
func (b *FIFOBank) Len(i int) int { return int(b.cur[i].n) }

// Push appends f to FIFO i and returns the new occupancy (1 means f is
// the front). The credit ledgers gate admission, so pushing beyond the
// depth is a flow-control violation.
func (b *FIFOBank) Push(i int, f *flit.Flit) int {
	c := &b.cur[i]
	if int(c.n) >= b.depth {
		Violatef("FIFO %d overflow: %v pushed beyond depth %d (credit accounting bug)", i, f, b.depth)
	}
	at := int(c.head) + int(c.n)
	if at >= b.depth {
		at -= b.depth
	}
	b.slots[i*b.depth+at] = f
	c.n++
	return int(c.n)
}

// Peek returns the front flit of FIFO i, or nil when it is empty.
func (b *FIFOBank) Peek(i int) *flit.Flit {
	c := b.cur[i]
	if c.n == 0 {
		return nil
	}
	return b.slots[i*b.depth+int(c.head)]
}

// Pop removes and returns the front flit of FIFO i together with the
// flit behind it, the new front (nil when the FIFO ran empty), so
// callers refresh their head mirrors without a second lookup. Popping an
// empty FIFO is a flow-control violation.
func (b *FIFOBank) Pop(i int) (f, next *flit.Flit) {
	c := &b.cur[i]
	if c.n == 0 {
		Violatef("FIFO %d popped while empty (credit accounting bug)", i)
	}
	base := i * b.depth
	f = b.slots[base+int(c.head)]
	b.slots[base+int(c.head)] = nil
	c.head++
	if int(c.head) == b.depth {
		c.head = 0
	}
	c.n--
	if c.n > 0 {
		next = b.slots[base+int(c.head)]
	}
	return f, next
}
