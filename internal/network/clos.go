// Package network implements the network-scale simulations of the
// paper's Section 7 (Figure 19) and their generalization: a Topology
// interface with folded-Clos, ring and 2D-torus families, a
// topology-agnostic input-queued engine (Network), and Run, which puts
// the engine, a drive.Device, behind internal/drive's one source bank
// and lets the one driver advance them (World). Generation, source
// queues and injection channels are drive.Bank's; this package supplies
// only which terminals a bank owns, their seeds and their packet ids
// (NewSources). The epoch runner (sharded.go) partitions the same engine
// and the same World across workers with byte-identical results, and
// Run takes its worker count from the process's CPU budget.
//
// The flagship topology is the multistage Clos of Figure 19: 4096
// nodes connected either by three stages of radix-64 routers (used as
// 64x64 unidirectional switches, 4096 = 64^2) or by five stages of
// radix-16 routers (4096 = 16^3), with oblivious routing that selects
// middle-stage switches at random, uniform random traffic, and
// credit-based flow control between stages.
//
// Per the paper, a simplified router model is used at network scale
// (the paper cites its own reduced-accuracy methodology [19]): each
// router is input-queued with per-VC buffers and a single-iteration
// round-robin output allocation. Its per-hop pipeline delay and channel
// serialization are analytic.Cycles of the radix; a granted flit lands
// downstream one link cycle after the pipeline delay, and a packet
// pays serialization once, at ejection.
package network

import (
	"errors"
	"fmt"

	"highradix/internal/analytic"
)

// Config describes one Clos network.
type Config struct {
	// Radix is k, the switch radix (ports per unidirectional side).
	Radix int
	// Digits is d with N = k^d terminals and 2d-1 switch stages.
	Digits int
	// VCs is the number of virtual channels per input port.
	VCs int
	// BufDepth is the per-(port,VC) input buffer depth in flits.
	BufDepth int
}

// WithDefaults fills the paper's Figure 19 parameters.
func (c Config) WithDefaults() Config {
	if c.Radix == 0 {
		c.Radix = 64
	}
	if c.Digits == 0 {
		switch c.Radix {
		case 64:
			c.Digits = 2 // 4096 = 64^2, three stages
		case 16:
			c.Digits = 3 // 4096 = 16^3, five stages
		default:
			c.Digits = 2
		}
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
func (c Config) Validate() error {
	if c.Radix < 2 {
		return fmt.Errorf("network: radix %d < 2", c.Radix)
	}
	if c.Digits < 1 || c.Digits > 6 {
		return fmt.Errorf("network: digits %d out of range", c.Digits)
	}
	if c.VCs < 1 || c.BufDepth < 1 {
		return errors.New("network: VCs and buffer depth must be >= 1")
	}
	return nil
}

// Terminals returns N = k^d.
func (c Config) Terminals() int {
	n := 1
	for i := 0; i < c.Digits; i++ {
		n *= c.Radix
	}
	return n
}

// Stages returns 2d-1, the number of switch stages.
func (c Config) Stages() int { return 2*c.Digits - 1 }

// Clos is the folded-Clos Topology of Figure 19: 2d-1 stages of n/k
// radix-k switches wired stage to stage by the k-ary perfect shuffle.
// Router r = stage*(n/k) + index within the stage.
type Clos struct {
	cfg Config
	n   int // terminals
	s   int // stages
	rpl int // routers per stage = n/k
	tr  int // per-hop pipeline delay, cycles
	ser int // flit serialization, cycles
}

// NewClos builds the Clos topology, applying Config defaults.
func NewClos(cfg Config) (*Clos, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Terminals()
	tr, ser := analytic.Cycles(cfg.Radix)
	return &Clos{cfg: cfg, n: n, s: cfg.Stages(), rpl: n / cfg.Radix, tr: tr, ser: ser}, nil
}

// Config returns the defaulted configuration.
func (c *Clos) Config() Config { return c.cfg }

func (c *Clos) Name() string   { return "clos" }
func (c *Clos) Routers() int   { return c.s * c.rpl }
func (c *Clos) Ports() int     { return c.cfg.Radix }
func (c *Clos) VCs() int       { return c.cfg.VCs }
func (c *Clos) Terminals() int { return c.n }
func (c *Clos) BufDepth() int  { return c.cfg.BufDepth }
func (c *Clos) SerCycles() int { return c.ser }
func (c *Clos) HopDelay() int  { return c.tr }
func (c *Clos) InjectVCs() int { return c.cfg.VCs }

// Diameter is the stage count: every route crosses each stage once.
func (c *Clos) Diameter() int { return c.s }

// shuffle applies the k-ary perfect shuffle to a wire position: the
// base-k digits of w rotate left by one, which is the inter-stage
// wiring of the k-ary Clos.
func (c *Clos) shuffle(w int) int {
	k := c.cfg.Radix
	msb := w / (c.n / k)
	return (w%(c.n/k))*k + msb
}

// Link wires output p of router r to the next stage through the
// shuffle; last-stage outputs eject at terminal index*k + p.
func (c *Clos) Link(r, p int) Link {
	k := c.cfg.Radix
	st, ri := r/c.rpl, r%c.rpl
	if st == c.s-1 {
		return Link{Router: -1, Terminal: ri*k + p}
	}
	w := c.shuffle(ri*k + p)
	return Link{Router: (st+1)*c.rpl + w/k, Port: w % k}
}

// Entry injects terminal t at stage-0 router t/k, port t%k.
func (c *Clos) Entry(t int) (router, port int) {
	k := c.cfg.Radix
	return t / k, t % k
}

// NextHop routes obliviously: a key-hashed random output during the
// ascent (middle-stage selection), then the destination digits
// MSB-first during the descent. The digit schedule composes with the
// shuffle wiring so the flit exits exactly at its destination terminal;
// TestRoutingReachesDestination proves this for every (src, dst) pair.
// VCs pass through unchanged (the Clos is cycle-free, so no dateline
// classes are needed).
func (c *Clos) NextHop(r, inPort, dst, vc int, key uint64) (outPort, outVC int) {
	k, d := c.cfg.Radix, c.cfg.Digits
	st := r / c.rpl
	if st < d-1 {
		return keyUniform(key, k), vc
	}
	digit := 2*d - 2 - st
	div := 1
	for i := 0; i < digit; i++ {
		div *= k
	}
	return (dst / div) % k, vc
}
