// Package area implements the storage and wire area models behind
// Figures 15 and 17(d). It prices flits, not architectures: a router
// reports the flit storage it built (router.Router.Storage), and the
// model converts that to bits and die area and sets it beside the wire
// area of a crossbar of the same radix and VC count, which is where
// storage overtakes wiring on the die.
//
// Figure 17(d) is reproduced exactly in the paper's own unit (storage
// bits). Figure 15 needs a process model; Model holds first-order
// 0.10 um constants (SRAM bit-cell area, wire pitch) chosen so the
// crossover lands where the paper reports it (storage exceeds wire area
// above roughly radix 50). The constants are inputs, not conclusions —
// change them for another process and the comparison machinery still
// holds.
package area

import "math"

// Model collects the technology parameters of the area comparison.
type Model struct {
	// FlitBits is the storage size of one flit.
	FlitBits int
	// BitCellUm2 is the area of one SRAM storage bit in um^2
	// (0.10 um process, including array overhead).
	BitCellUm2 float64
	// WirePitchUm is the signal wire pitch in um.
	WirePitchUm float64
	// DatapathWires is the total one-direction crossbar datapath width
	// in wires; it is independent of radix because total bandwidth is
	// held constant as radix grows (k ports of width DatapathWires/k).
	DatapathWires int
	// CtlBase is the radix-independent number of control wires per port
	// (grant, valid, credit-return bus, ...).
	CtlBase int
}

// Default returns the model used for the paper reproduction: 64-bit
// flits and 0.10 um constants calibrated so the Figure 15 crossover
// falls near radix 50 for the routers' default buffers.
func Default() Model {
	return Model{
		FlitBits:      64,
		BitCellUm2:    1.5,
		WirePitchUm:   1.2,
		DatapathWires: 1024,
		CtlBase:       6,
	}
}

// StorageBits converts flits of storage to bits.
func (m Model) StorageBits(flits int) float64 {
	return float64(flits) * float64(m.FlitBits)
}

// StorageAreaMm2 converts storage bits to die area.
func (m Model) StorageAreaMm2(bits float64) float64 {
	return bits * m.BitCellUm2 * 1e-6
}

// WireAreaMm2 returns the wire area of a radix-k crossbar with v virtual
// channels: the datapath (constant total width, since bandwidth is held
// constant) plus control wiring that grows with radix as each port needs
// request lines (log2 k destination bits plus log2 v VC bits) and fixed
// control. The crossbar occupies the square of its side length.
func (m Model) WireAreaMm2(k, v int) float64 {
	ctlPerPort := float64(m.CtlBase) + math.Log2(float64(k)) + math.Log2(float64(v))
	side := (float64(m.DatapathWires) + float64(k)*ctlPerPort) * m.WirePitchUm
	return side * side * 1e-6
}
