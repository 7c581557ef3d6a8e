package check

// The books the tests read to show a run was not vacuous; nothing
// outside the tests looks at them.

// Stats returns event counters accumulated so far.
func (c *Checker) Stats() Stats {
	s := c.stats
	s.Packets = c.fl.delivered
	return s
}

// Live returns the number of flits currently in flight according to
// the event stream.
func (c *Checker) Live() int { return c.fl.liveCount }
