package arb

// Dual is the prioritized switch arbiter of Section 4.4 (Figure 10b):
// two arbiters share one grant port, and a speculative request is
// granted only when there are no nonspeculative requests. To keep the
// speculative arbiter fair, its priority pointer is updated only when a
// speculative request actually wins (i.e. when no nonspeculative request
// was present) — exactly the rule stated in the paper.
type Dual struct {
	n       int
	nonspec Arbiter
	spec    Arbiter
}

// NewDual builds a prioritized dual arbiter over n lines. Both internal
// arbiters use the supplied constructor so the dual arbiter can wrap
// either flat round-robin or local-global stages.
func NewDual(n int, mk func(n int) Arbiter) *Dual {
	return &Dual{n: n, nonspec: mk(n), spec: mk(n)}
}

// ArbitrateBits selects a winner given separate nonspeculative and
// speculative request vectors. The returned index refers to the shared
// line numbering; spec reports whether the granted request was
// speculative. It returns (-1, false) when nothing requests.
func (a *Dual) ArbitrateBits(nonspecReq, specReq *BitVec) (winner int, spec bool) {
	if nonspecReq.n != a.n || specReq.n != a.n {
		panic("arb: request vector size mismatch")
	}
	if w := a.nonspec.ArbitrateBits(nonspecReq); w >= 0 {
		return w, false
	}
	if w := a.spec.ArbitrateBits(specReq); w >= 0 {
		return w, true
	}
	return -1, false
}
