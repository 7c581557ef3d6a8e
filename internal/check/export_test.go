package check

// The books the tests read to show a run was not vacuous; nothing
// outside the tests looks at them.

// WatchdogCycles is how long the checker waits for progress.
const WatchdogCycles = watchdogCycles

// Stats is what a test reads to show a run exercised the checker.
type Stats struct {
	Packets uint64 // fully delivered packets
	Credits uint64 // credit pools seen
}

// Stats returns the books so far.
func (c *Checker) Stats() Stats {
	return Stats{Packets: c.delivered, Credits: uint64(len(c.pools))}
}

// Live returns the number of flits currently in flight according to
// the event stream.
func (c *Checker) Live() int { return c.liveCount }
