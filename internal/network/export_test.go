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
	return NewNetwork(topo, seed^0x632be59bd9b4e019), nil
}
