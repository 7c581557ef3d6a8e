package traffic

import "highradix/internal/sim"

// Inject is the chain walked one cycle at a time, as it was before
// sources ran ahead: the reference InjectAhead is held to, and what the
// distribution tests sample. It reports whether a packet is generated
// this cycle. State transitions are evaluated before the injection
// decision so a fresh ON state injects immediately.
func (m *MarkovOnOff) Inject(rng *sim.RNG) bool {
	if m.on {
		if rng.Bernoulli(m.beta) {
			m.on = false
			m.burst = 0
		}
	} else if rng.Uint64()>>11 < m.alpha {
		m.on = true
	}
	if m.on {
		m.burst++
		return true
	}
	return false
}
