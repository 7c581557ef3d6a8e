package router

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"highradix/internal/router/core"
)

// TestColumnStageMirrors drives the shared column stage through random
// landings and steps at a small shape, with one FIFO per VC and with one
// FIFO per buffer shared by all VCs, each once returning credits at once
// and once over a credit bus, at 3 VCs (one mask word per buffer) and at
// 40 (two words). After every step it holds each mirror to
// the queues it mirrors: a buffer's occ word to the VCs of its FIFOs'
// fronts (per VC, bit c to FIFO c being nonempty; shared, 1 << front.VC),
// its head word to which of those fronts are head flits, a row bit to
// its occ word, the flit and per-output counts to the FIFO lengths, and
// — from the ledger's own audit events — each pool's credits plus held
// flits to its depth. A final drain must bring every credit home.
func TestColumnStageMirrors(t *testing.T) {
	const rows, k, depth = 3, 4, 2
	for _, v := range []int{3, 40} {
		for _, slots := range []int{v, 1} {
			for _, viaBus := range []bool{false, true} {
				// The per-VC cases at 3 VCs keep their original names.
				name := "immediate"
				if viaBus {
					name = "bus"
				}
				if slots == 1 {
					name = "shared/" + name
				}
				if v != 3 {
					name = fmt.Sprintf("v%d/%s", v, name)
				}
				t.Run(name, func(t *testing.T) { testColumnStageMirrors(t, rows, k, v, slots, depth, viaBus) })
			}
		}
	}
}

func testColumnStageMirrors(t *testing.T, rows, k, v, slots, depth int, viaBus bool) {
	credits := make([]int, rows*k*slots) // per pool, tallied from EvCredit
	for i := range credits {
		credits[i] = depth
	}
	grants := 0
	obs := core.Obs{O: core.ObserverFunc(func(e Event) {
		switch e.Kind {
		case EvCredit:
			credits[(e.Input*k+e.Output)*slots+e.VC] += e.Delta
		case EvGrant:
			grants++
		}
	})}
	cfg := Config{Radix: k, VCs: v, STCycles: 1, LocalGroup: 2}
	base := core.MakeBase(obs, k, v, 1, cfg.STCycles)
	s := makeColumnStage(&cfg, &base, rows, slots, depth, "xpoint", "output")
	bus := core.MakeCreditBus(rows, k, cfg.LocalGroup, slots*depth)
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
				var occ, head uint64
				for slot := 0; slot < slots; slot++ {
					pool := x*slots + slot
					n := s.buf.Len(pool)
					perOut += n
					if front := s.buf.Peek(pool); front != nil {
						occ |= 1 << uint(front.VC)
						if front.Head {
							head |= 1 << uint(front.VC)
						}
					}
					if s.credit.Avail(pool) != (credits[pool] > 0) {
						t.Fatalf("cycle %d: (%d,%d) slot %d Avail disagrees with %d audited credits", now, row, o, slot, credits[pool])
					}
					// A credit on the bus is in neither count.
					if got := credits[pool] + n; got != depth && !(viaBus && got < depth) {
						t.Fatalf("cycle %d: (%d,%d) slot %d credits %d + flits %d != depth %d", now, row, o, slot, credits[pool], n, depth)
					}
				}
				if gotOcc, gotHead := s.fronts(x); gotOcc != occ || gotHead != head {
					t.Fatalf("cycle %d: (%d,%d) occ %#x head %#x, fronts give occ %#x head %#x", now, row, o, gotOcc, gotHead, occ, head)
				}
				if got := s.rowBits[o].Get(row); got != (occ != 0) {
					t.Fatalf("cycle %d: row bit (%d,%d) %v with occ %#x", now, row, o, got, occ)
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

	// Each (row, o, slot) stream lands whole packets in order, as a row
	// wire or a subswitch delivers them; a stream's index is its pool.
	// Per VC the slot is the VC; a shared FIFO takes each packet on a VC
	// drawn at random, so its fronts change VC as packets pass.
	type stream struct {
		id         uint64
		seq, n, vc int
	}
	streams := make([]stream, rows*k*slots)
	nextID, landed := uint64(1), 0
	r := rand.New(rand.NewPCG(1, 2))
	land := func(now int64, pool int) {
		x, slot := pool/slots, pool%slots
		row, o := x/k, x%k
		st := &streams[pool]
		if st.seq == st.n {
			*st = stream{id: nextID, n: 1 + r.IntN(3), vc: slot}
			if slots == 1 {
				st.vc = r.IntN(v)
			}
			nextID++
		}
		s.credit.Spend(now, pool, row, o, slot)
		s.land(row, testFlit(st.id, st.seq, st.n, row, st.vc, o))
		st.seq++
		landed++
	}
	const busy, end = 1500, 2000
	for now := int64(0); now < end; now++ {
		base.BeginCycle(now)
		if now < busy {
			for n := r.IntN(4); n > 0; n-- {
				if pool := r.IntN(rows * k * slots); s.credit.Avail(pool) {
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
}
