package network

// WiringTables rebuilds, from the engine's output and feeder records
// (indexed (r-lo)*Ports+port), the Links they encode, for the external
// tests to hold against the topology.
func (nw *Network) WiringTables() (links, feeders []Link) {
	for _, op := range nw.outs {
		l := Link{Router: int(op.to), Port: int(op.port)}
		if op.to < 0 {
			l = Link{Router: -1, Terminal: int(^op.to)}
		}
		links = append(links, l)
	}
	for _, fd := range nw.feeders {
		ch := int(fd.ch)
		switch {
		case ch < 0:
			feeders = append(feeders, Link{Router: -1, Terminal: ^ch / nw.v})
			continue
		case fd.box < 0:
			ch += nw.qlo
		}
		feeders = append(feeders, Link{Router: ch / nw.flat, Port: ch / nw.v % nw.ports})
	}
	return links, feeders
}

// FeedersOf inverts topo's wiring by brute force, independently of the
// engine: it scans every router output and every terminal and returns
// all those whose wire ends at input port p of router r.
func FeedersOf(topo Topology, r, p int) []Link {
	var fs []Link
	for ur := range topo.Routers() {
		for up := range topo.Ports() {
			if ln := topo.Link(ur, up); ln.Router == r && ln.Port == p {
				fs = append(fs, Link{Router: ur, Port: up})
			}
		}
	}
	for t := range topo.Terminals() {
		if er, ep := topo.Entry(t); er == r && ep == p {
			fs = append(fs, Link{Router: -1, Terminal: t})
		}
	}
	return fs
}

// New builds a full serial network over the Clos topology described by
// cfg, for the tests that step an engine directly instead of through
// Run; routing draws from seed.
func New(cfg Config, seed uint64) (*Network, error) {
	topo, err := NewClos(cfg)
	if err != nil {
		return nil, err
	}
	if err := CheckLimits(topo); err != nil {
		return nil, err
	}
	return NewNetwork(topo, Options{Seed: seed}.RouteSeed()), nil
}
