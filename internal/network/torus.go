package network

import (
	"fmt"
)

// TorusConfig describes a 2D torus: X*Y routers, one terminal each,
// with a bidirectional ring in each dimension. Y = 1 is the
// one-dimensional torus, a bidirectional ring of X routers.
type TorusConfig struct {
	// X, Y are the dimension sizes; Terminals = X*Y.
	X, Y int
	// VCs is the number of virtual channels per input port. It must be
	// even: the upper half is the dateline class (see Torus.NextHop),
	// so packets inject on [0, VCs/2).
	VCs int
	// BufDepth is the per-(port,VC) input buffer depth in flits.
	BufDepth int
}

// A torus router's per-hop pipeline delay and flit serialization, in
// cycles: a small NoC-style router with full-width channels.
const (
	torusHopDelay  = 3
	torusSerCycles = 1
)

// WithDefaults fills a small NoC-style torus.
func (c TorusConfig) WithDefaults() TorusConfig {
	if c.X == 0 {
		c.X = 4
	}
	if c.Y == 0 {
		c.Y = 4
	}
	if c.VCs == 0 {
		c.VCs = 4
	}
	if c.BufDepth == 0 {
		c.BufDepth = 8
	}
	return c
}

// Validate reports configuration errors.
func (c TorusConfig) Validate() error {
	if c.X < 2 || c.Y < 1 {
		return fmt.Errorf("network: torus needs X >= 2 and Y >= 1 (Y = 1 is a ring), got %dx%d", c.X, c.Y)
	}
	if c.VCs < 2 || c.VCs%2 != 0 {
		return fmt.Errorf("network: torus needs an even VC count >= 2 for dateline classes, got %d", c.VCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("network: buffer depth must be >= 1")
	}
	return nil
}

// Torus is a 2D-torus Topology with dimension-order routing. Router
// r = y*X + x. Ports: 0 = terminal, 1 = X+, 2 = X-, 3 = Y+, 4 = Y-.
//
// Deadlock freedom: packets route X first then Y (dimension order), so
// channel dependences only flow X -> Y. Within each dimension, minimal
// routing with a per-direction dateline (the wrap link) moves packets
// from VC class [0, VCs/2) to [VCs/2, VCs); a packet re-enters class 0
// when it turns into Y (the reset in NextHop), which is legal because
// X and Y channels are disjoint resources and the combined order
// X-class0 < X-class1 < Y-class0 < Y-class1 is acyclic.
type Torus struct {
	cfg TorusConfig
}

// NewTorus builds the torus topology, applying defaults.
func NewTorus(cfg TorusConfig) (*Torus, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Torus{cfg: cfg}, nil
}

// Config returns the defaulted configuration.
func (g *Torus) Config() TorusConfig { return g.cfg }

// Name is "ring" for the one-dimensional torus.
func (g *Torus) Name() string {
	if g.cfg.Y == 1 {
		return "ring"
	}
	return "torus"
}

// Ports leaves out the Y ports of a ring, which would only loop back.
func (g *Torus) Ports() int {
	if g.cfg.Y == 1 {
		return 3
	}
	return 5
}

func (g *Torus) Routers() int   { return g.cfg.X * g.cfg.Y }
func (g *Torus) VCs() int       { return g.cfg.VCs }
func (g *Torus) Terminals() int { return g.cfg.X * g.cfg.Y }
func (g *Torus) BufDepth() int  { return g.cfg.BufDepth }
func (g *Torus) SerCycles() int { return torusSerCycles }
func (g *Torus) HopDelay() int  { return torusHopDelay }
func (g *Torus) InjectVCs() int { return g.cfg.VCs / 2 }

// Diameter counts the routers of the longest minimal dimension-order
// route: half of each ring, plus the router the route starts at.
func (g *Torus) Diameter() int { return g.cfg.X/2 + g.cfg.Y/2 + 1 }

// Link wires port 0 to the local terminal and the four direction ports
// to the neighboring router's matching input port.
func (g *Torus) Link(r, p int) Link {
	x, y := r%g.cfg.X, r/g.cfg.X
	switch p {
	case 0:
		return Link{Router: -1, Terminal: r}
	case 1:
		return Link{Router: y*g.cfg.X + (x+1)%g.cfg.X, Port: 1}
	case 2:
		return Link{Router: y*g.cfg.X + (x-1+g.cfg.X)%g.cfg.X, Port: 2}
	case 3:
		return Link{Router: ((y+1)%g.cfg.Y)*g.cfg.X + x, Port: 3}
	default:
		return Link{Router: ((y-1+g.cfg.Y)%g.cfg.Y)*g.cfg.X + x, Port: 4}
	}
}

// Entry injects terminal t at router t, port 0.
func (g *Torus) Entry(t int) (router, port int) { return t, 0 }

// NextHop routes dimension-order (X then Y), minimal within each
// dimension with ties to the positive direction, crossing to the
// dateline class on wrap links. The first Y-routing decision resets
// the VC to class 0 (keeping the lane), distinguished from later Y
// hops by the input port: an X or terminal input port means the packet
// is turning into Y now.
func (g *Torus) NextHop(r, inPort, dst, vc int, key uint64) (outPort, outVC int) {
	nx, ny := g.cfg.X, g.cfg.Y
	x, y := r%nx, r/nx
	tx, ty := dst%nx, dst/nx
	half := g.cfg.VCs / 2
	if x != tx {
		pos := (tx - x + nx) % nx
		if 2*pos <= nx { // X+ no farther than X-
			if x == nx-1 && vc < half { // wrap: the X+ dateline
				vc += half
			}
			return 1, vc
		}
		if x == 0 && vc < half { // wrap: the X- dateline
			vc += half
		}
		return 2, vc
	}
	if y != ty {
		if inPort < 3 { // arriving from X or the terminal: dimension turn
			vc %= half
		}
		pos := (ty - y + ny) % ny
		if 2*pos <= ny { // Y+ no farther than Y-
			if y == ny-1 && vc < half { // wrap: the Y+ dateline
				vc += half
			}
			return 3, vc
		}
		if y == 0 && vc < half { // wrap: the Y- dateline
			vc += half
		}
		return 4, vc
	}
	return 0, vc
}
