package network

// WiringTables exposes the engine's precomputed link and feeder tables
// (indexed (r-lo)*Ports+port) to the external tests.
func (nw *Network) WiringTables() (links, feeders []Link) { return nw.links, nw.feeders }
