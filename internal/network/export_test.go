package network

// WiringTables exposes the engine's precomputed link and feeder tables
// (indexed (r-lo)*Ports+port) to the external tests.
func (nw *Network) WiringTables() (links, feeders []Link) { return nw.links, nw.feeders }

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
