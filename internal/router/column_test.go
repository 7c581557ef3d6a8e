package router

import (
	"math/rand/v2"
	"testing"

	"highradix/internal/router/core"
)

// TestColumnStageMirrors drives the shared column stage through random
// landings and steps at a small shape, once returning credits at once
// and once over a credit bus, and after every step holds each mirror to
// the queues it mirrors: an occ bit to its FIFO being nonempty, a head
// bit to its front being a head flit, a row bit to its occ word, the
// flit and per-output counts to the FIFO lengths, and — from the
// ledger's own audit events — each pool's credits plus held flits to
// its depth. A final drain must bring every credit home.
func TestColumnStageMirrors(t *testing.T) {
	const rows, k, v, depth = 3, 4, 3, 2
	for _, viaBus := range []bool{false, true} {
		name := "immediate"
		if viaBus {
			name = "bus"
		}
		t.Run(name, func(t *testing.T) {
			credits := make([]int, rows*k*v) // per pool, tallied from EvCredit
			for i := range credits {
				credits[i] = depth
			}
			grants := 0
			obs := core.Obs{O: core.ObserverFunc(func(e Event) {
				switch e.Kind {
				case EvCredit:
					credits[(e.Input*k+e.Output)*v+e.VC] += e.Delta
				case EvGrant:
					grants++
				}
			})}
			cfg := Config{Radix: k, VCs: v, STCycles: 1, LocalGroup: 2}
			base := core.MakeBase(obs, k, v, 1, cfg.STCycles)
			s := makeColumnStage(&cfg, &base, rows, depth, "xpoint", "output")
			bus := core.MakeCreditBus(rows, k, cfg.LocalGroup, v*depth)
			if viaBus {
				s.bus = &bus
			}

			check := func(now int64) {
				t.Helper()
				held := 0
				for o := 0; o < k; o++ {
					perOut := 0
					for row := 0; row < rows; row++ {
						x := row*k + o
						for c := 0; c < v; c++ {
							pool := x*v + c
							n := s.buf.Len(pool)
							perOut += n
							if occ := s.occ[x]>>uint(c)&1 != 0; occ != (n > 0) {
								t.Fatalf("cycle %d: (%d,%d,%d) occ bit %v with %d flits", now, row, o, c, occ, n)
							}
							front := s.buf.Peek(pool)
							if head := s.head[x]>>uint(c)&1 != 0; head != (front != nil && front.Head) {
								t.Fatalf("cycle %d: (%d,%d,%d) head bit %v, front %v", now, row, o, c, head, front)
							}
							if s.credit.Avail(pool) != (credits[pool] > 0) {
								t.Fatalf("cycle %d: (%d,%d,%d) Avail disagrees with %d audited credits", now, row, o, c, credits[pool])
							}
							// A credit on the bus is in neither count.
							if got := credits[pool] + n; got != depth && !(viaBus && got < depth) {
								t.Fatalf("cycle %d: (%d,%d,%d) credits %d + flits %d != depth %d", now, row, o, c, credits[pool], n, depth)
							}
						}
						if got := s.rowBits[o].Get(row); got != (s.occ[x] != 0) {
							t.Fatalf("cycle %d: row bit (%d,%d) %v with occ %#x", now, row, o, got, s.occ[x])
						}
					}
					if s.act.Count(o) != perOut {
						t.Fatalf("cycle %d: output %d counts %d flits, FIFOs hold %d", now, o, s.act.Count(o), perOut)
					}
					held += perOut
				}
				if s.flits != held {
					t.Fatalf("cycle %d: stage counts %d flits, FIFOs hold %d", now, s.flits, held)
				}
			}

			// Each (row, o, c) stream lands whole packets in order, as a row
			// wire or a subswitch delivers them; a stream's pool index is its
			// slot here.
			type stream struct {
				id     uint64
				seq, n int
			}
			streams := make([]stream, rows*k*v)
			nextID, landed := uint64(1), 0
			r := rand.New(rand.NewPCG(1, 2))
			land := func(now int64, pool int) {
				x, c := pool/v, pool%v
				row, o := x/k, x%k
				st := &streams[pool]
				if st.seq == st.n {
					*st = stream{id: nextID, n: 1 + r.IntN(3)}
					nextID++
				}
				s.credit.Spend(now, pool, row, o, c)
				s.land(row, testFlit(st.id, st.seq, st.n, row, c, o))
				st.seq++
				landed++
			}
			const busy, end = 1500, 2000
			for now := int64(0); now < end; now++ {
				base.BeginCycle(now)
				if now < busy {
					for n := r.IntN(4); n > 0; n-- {
						if pool := r.IntN(rows * k * v); s.credit.Avail(pool) {
							land(now, pool)
						}
					}
				} else {
					// Drain: finish every open packet, start none.
					for pool, st := range streams {
						if st.seq < st.n && s.credit.Avail(pool) {
							land(now, pool)
						}
					}
				}
				s.step(now)
				bus.Step(now, func(row, o, c int) { s.returnCredit(now, row, o, c) })
				check(now)
			}
			if s.flits != 0 || bus.Pending() != 0 || base.Out.Len() != 0 {
				t.Fatalf("not drained: %d flits, %d bus credits, %d ejecting", s.flits, bus.Pending(), base.Out.Len())
			}
			for pool, n := range credits {
				if n != depth {
					t.Fatalf("pool %d ends with %d credits, want %d", pool, n, depth)
				}
			}
			if grants != landed || landed < busy/2 {
				t.Fatalf("%d flits landed, %d granted", landed, grants)
			}
		})
	}
}
