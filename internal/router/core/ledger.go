package core

// Ledger is the credit ledger of one family of credit-counted buffer
// pools (crosspoint buffers, subswitch input or output buffers): a flat
// array of credit counts, one per pool, all sharing a depth and an
// audit note. The ledger owns every spend and return path — callers
// never touch a credit count directly — and emits the EvCredit audit
// events itself, so credit conservation is checkable without any
// architecture knowledge (internal/check's pool model keys on the note
// and the event's port fields).
//
// Pool indexing is the caller's flattening of its (input, output, vc)
// coordinates; the event labels are passed explicitly because
// architectures address pools differently (the hierarchical subswitch
// output pools, for example, label Input with the subswitch row).
type Ledger struct {
	credits []int32
	depth   int
	note    string
	obs     Obs
}

// MakeLedger returns a ledger of pools pools, each depth credits, by
// value for embedding. All credits start home (every slot free).
func MakeLedger(obs Obs, note string, pools, depth int) Ledger {
	l := Ledger{credits: make([]int32, pools), depth: depth, note: note, obs: obs}
	for i := range l.credits {
		l.credits[i] = int32(depth)
	}
	return l
}

// Capacity returns the credits of all pools when every slot is free.
func (l *Ledger) Capacity() int { return len(l.credits) * l.depth }

// Avail reports whether pool i has a credit to spend.
func (l *Ledger) Avail(i int) bool { return l.credits[i] > 0 }

// Spend consumes one credit of pool i — a flit was committed toward the
// pool's buffer — and emits the audit event labeled (input, output,
// vc). Spending a credit the pool does not have is a flow-control
// violation: the downstream buffer would overflow.
func (l *Ledger) Spend(now int64, i int, input, output, vc int) {
	l.credits[i]--
	if l.credits[i] < 0 {
		Violatef("%s credit underflow at pool in=%d out=%d vc=%d: spend beyond depth %d",
			l.note, input, output, vc, l.depth)
	}
	l.obs.Credit(now, input, output, vc, l.note, -1, l.depth)
}

// Return gives one credit back to pool i — the buffer slot freed — and
// emits the audit event. Returning a credit the pool never spent is a
// flow-control violation.
func (l *Ledger) Return(now int64, i int, input, output, vc int) {
	l.credits[i]++
	if int(l.credits[i]) > l.depth {
		Violatef("%s credit overflow at pool in=%d out=%d vc=%d: returned beyond depth %d",
			l.note, input, output, vc, l.depth)
	}
	l.obs.Credit(now, input, output, vc, l.note, +1, l.depth)
}
