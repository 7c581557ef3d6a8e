package network

import (
	"math/rand/v2"
	"testing"
)

// overflowSlots is the slot storage an engine holds beyond its queue
// fronts.
func overflowSlots(nw *Network) int { return cap(nw.pool.slots) }

// TestFreshEngineHoldsNoOverflow holds the engine's storage to
// occupancy: a freshly built engine, whole or one shard's range of the
// Figure 19 networks, holds no slot for a second flit in any queue.
func TestFreshEngineHoldsNoOverflow(t *testing.T) {
	for _, cfg := range []Config{{Radix: 64, Digits: 2}, {Radix: 16, Digits: 3}} {
		topo := mustClos(t, cfg)
		halves := Layout{Routers: Partition(topo.Routers(), 2), Terminals: Partition(topo.Terminals(), 2)}
		for _, nw := range []*Network{NewNetwork(topo, 1), NewNetworkRange(topo, 1, halves, 1)} {
			if n := overflowSlots(nw); n != 0 {
				t.Errorf("k%dd%d routers [%d,%d): fresh engine holds %d overflow slots, want 0", cfg.Radix, cfg.Digits, nw.lo, nw.hi, n)
			}
		}
	}
}

// TestPoolFollowsOccupancy drives several input queues of one engine
// from empty to full and back, interleaved, many times, landing flits
// with land and granting them with pop. At every step the queues must
// hold their flits in arrival order, the chunks lent must be exactly one
// per queue holding two or more flits, and every chunk must be free
// once the queues are empty.
func TestPoolFollowsOccupancy(t *testing.T) {
	nw, err := New(Config{Radix: 4, Digits: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	depth := nw.depth
	type ref struct{ router, port, vc int }
	refs := []ref{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 3, 3}, {2, 2, 1}, {nw.hi - 1, 0, 2}}
	model := make([][]uint64, len(refs)) // each queue's packet ids, front first
	rng := rand.New(rand.NewPCG(1, 62))
	next := uint64(0)

	check := func(step int) {
		t.Helper()
		for i, r := range refs {
			q := nw.queue(r.router, r.port, r.vc)
			in, want := nw.inq[q], model[i]
			if int(in.n) != len(want) {
				t.Fatalf("step %d: queue %v holds %d flits, want %d", step, r, in.n, len(want))
			}
			for j, pkt := range want {
				got := nw.front[q].pkt
				if j > 0 {
					got = nw.pool.ring(in.chunk)[(int(in.head)+j-1)%nw.pool.m].pkt
				}
				if got != pkt {
					t.Fatalf("step %d: queue %v flit %d is packet %d, want %d", step, r, j, got, pkt)
				}
			}
		}
		chunks := len(nw.pool.slots) / nw.pool.m
		owner := make([]int, chunks) // 1 + the queue holding each chunk, -1 free
		for _, c := range nw.pool.free {
			if owner[c] != 0 {
				t.Fatalf("step %d: chunk %d is on the free list twice", step, c)
			}
			owner[c] = -1
		}
		for q, in := range nw.inq {
			if in.n < 2 {
				continue
			}
			if o := owner[in.chunk]; o != 0 {
				t.Fatalf("step %d: queue %d holds chunk %d, also held by %d", step, q, in.chunk, o)
			}
			owner[in.chunk] = q + 1
		}
		for c, o := range owner {
			if o == 0 {
				t.Fatalf("step %d: chunk %d is neither free nor held by a queue of two or more flits", step, c)
			}
		}
	}

	step := 0
	for round := range 40 {
		// Fill with mostly landings, then drain with mostly grants; which
		// queue moves is random, so queues pass through every fill
		// level while their neighbours are at others.
		for _, fill := range []bool{true, false} {
			for {
				done := true
				for i := range refs {
					if (fill && len(model[i]) < depth) || (!fill && len(model[i]) > 0) {
						done = false
					}
				}
				if done {
					break
				}
				i := rng.IntN(len(refs))
				r := refs[i]
				q := nw.queue(r.router, r.port, r.vc)
				// Three moves in four go the phase's way.
				land := fill
				if rng.IntN(4) == 0 {
					land = !fill
				}
				if land && len(model[i]) < depth {
					nw.land([]Arrival{{pkt: next, Router: int32(r.router), Port: uint16(r.port), VC: uint8(r.vc)}})
					model[i] = append(model[i], next)
					next++
				} else if !land && len(model[i]) > 0 {
					if got, want := nw.pop(q), len(model[i]) > 1; got != want {
						t.Fatalf("step %d: pop of queue %v with %d flits reports a new front %v", step, r, len(model[i]), got)
					}
					model[i] = model[i][1:]
				}
				check(step)
				step++
			}
		}
		if chunks := len(nw.pool.slots) / nw.pool.m; len(nw.pool.free) != chunks || chunks == 0 {
			t.Fatalf("round %d: all queues empty, %d of %d chunks free", round, len(nw.pool.free), chunks)
		}
		if chunks := len(nw.pool.slots) / nw.pool.m; chunks > len(refs) {
			t.Fatalf("round %d: pool grew to %d chunks for %d queues", round, chunks, len(refs))
		}
	}
}
