package core

import (
	"highradix/internal/flit"
	"highradix/internal/sim"
)

// ejEntry is a flit scheduled to leave an output port at the end of its
// switch traversal.
type ejEntry struct {
	f    *flit.Flit
	port int32
}

// EjectPipe schedules flits to leave output ports exactly delay cycles
// after they are pushed, and owns the per-cycle ejection bookkeeping
// every architecture otherwise duplicates: releasing output-VC
// ownership at tail flits, emitting EvEject, and collecting the cycle's
// ejected flits into the slice behind router.Router.Ejected (whose
// recycling contract the pipe upholds — once a flit appears there, the
// router holds no reference to it).
type EjectPipe struct {
	delay int64
	due   sim.Calendar[ejEntry]
	out   []*flit.Flit
}

// MakeEjectPipe returns a pipe with the given traversal delay, by value
// for embedding. ports sizes each per-cycle bucket (and the ejected
// slice): at most one flit per output port can be pushed per cycle, so
// with that capacity preallocated the pipe never regrows, keeping
// steady-state stepping alloc-free even at radix 256.
func MakeEjectPipe(delay, ports int) EjectPipe {
	if delay < 1 {
		Violatef("eject delay %d must be at least one cycle", delay)
	}
	return EjectPipe{
		delay: int64(delay),
		due:   *sim.NewCalendar[ejEntry](delay, ports),
		out:   make([]*flit.Flit, 0, ports),
	}
}

// Push schedules f to leave output port exactly the pipe's delay after
// cycle now.
func (p *EjectPipe) Push(now int64, port int, f *flit.Flit) {
	p.due.Schedule(now+p.delay, ejEntry{f: f, port: int32(port)})
}

// Len reports the flits inside the pipe.
func (p *EjectPipe) Len() int { return p.due.Len() }

// NextWake returns the cycle at which the pipe's earliest flit leaves,
// or sim.NoWake when the pipe is empty.
func (p *EjectPipe) NextWake() int64 { return p.due.NextAt() }

// Ejected returns the flits drained by the last BeginCycle. The slice
// is reused across cycles; callers must not retain it.
func (p *EjectPipe) Ejected() []*flit.Flit { return p.out }

// BeginCycle opens cycle now: it resets the ejected slice and drains
// the flits due by now in push order, releasing owner's (port, VC) at
// each tail flit and emitting EvEject.
func (p *EjectPipe) BeginCycle(now int64, owner *VCOwnerTable, obs Obs) {
	p.out = p.out[:0]
	p.due.PopDue(now, func(due []ejEntry) {
		for _, en := range due {
			f := en.f
			if f.Tail {
				owner.Release(int(en.port), f.VC, f.PacketID)
			}
			obs.Emit(now, EvEject, f, f.Src, int(en.port), f.VC, "")
			p.out = append(p.out, f)
		}
	})
}
