package router_test

import (
	"testing"

	"highradix/internal/flit"
	"highradix/internal/router"
)

// TestObserverSeesPacketLifecycle attaches an observer to each
// architecture, pushes one packet through, and verifies the canonical
// event sequence: accept first, eject last, at least one grant in
// between, all flits covered.
func TestObserverSeesPacketLifecycle(t *testing.T) {
	for name, cfg := range allConfigs() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			var events []router.Event
			cfg.Observer = router.ObserverFunc(func(e router.Event) {
				events = append(events, e)
			})
			r, err := router.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			flits := flit.MakePacket(1, 2, 5, 0, 3, 0, false)
			idx := 0
			var ejected int
			for now := int64(0); now < 2000 && ejected < len(flits); now++ {
				if idx < len(flits) && r.CanAccept(2, 0) {
					r.Accept(now, flits[idx])
					idx++
				}
				r.Step(now)
				ejected += len(r.Ejected())
			}
			if ejected != len(flits) {
				t.Fatalf("only %d of %d flits ejected", ejected, len(flits))
			}
			var accepts, grants, ejects int
			for _, e := range events {
				switch e.Kind {
				case router.EvAccept:
					accepts++
					if e.Input != 2 || e.Flit == nil {
						t.Fatalf("bad accept event %+v", e)
					}
				case router.EvGrant:
					grants++
				case router.EvEject:
					ejects++
					if e.Output != 5 {
						t.Fatalf("eject at output %d, want 5", e.Output)
					}
				}
			}
			if accepts != 3 || ejects != 3 {
				t.Fatalf("accepts=%d ejects=%d, want 3/3 (events: %d)", accepts, ejects, len(events))
			}
			if grants < 3 {
				t.Fatalf("only %d grant events for 3 flits", grants)
			}
			// Ordering: the first event must be an accept and the last an
			// eject.
			if events[0].Kind != router.EvAccept {
				t.Fatalf("first event %v", events[0].Kind)
			}
			if events[len(events)-1].Kind != router.EvEject {
				t.Fatalf("last event %v", events[len(events)-1].Kind)
			}
		})
	}
}

// TestObserverNacksVisible forces a VC-allocation failure and checks a
// NACK event surfaces: two single-VC packets to one output, the second
// must fail while the first holds the output VC — at the baseline's
// speculative VC allocation, and at the shared crosspoint, whose blocked
// head is dropped from the buffer front and re-sent from the input. The
// router's InFlight must equal accepts minus ejects after every Step.
func TestObserverNacksVisible(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  router.Config
		note string // a NACK note that must appear
	}{
		{"baseline", router.Config{Arch: router.ArchBaseline, Radix: 4, VCs: 1, InputBufDepth: 8, VA: router.CVA}, "cva-busy"},
		{"sharedxp", router.Config{Arch: router.ArchSharedXpoint, Radix: 4, VCs: 1, InputBufDepth: 8}, "xpoint-vc-busy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nacks := map[string]int{}
			cfg := tc.cfg
			cfg.Observer = router.ObserverFunc(func(e router.Event) {
				if e.Kind == router.EvNack {
					nacks[e.Note]++
				}
			})
			r, err := router.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Two long packets from different inputs to output 0 on the only VC.
			a := flit.MakePacket(1, 0, 0, 0, 6, 0, false)
			b := flit.MakePacket(2, 1, 0, 0, 6, 0, false)
			ai, bi := 0, 0
			got := 0
			for now := int64(0); now < 5000 && got < 12; now++ {
				if ai < len(a) && r.CanAccept(0, 0) {
					r.Accept(now, a[ai])
					ai++
				}
				if bi < len(b) && r.CanAccept(1, 0) {
					r.Accept(now, b[bi])
					bi++
				}
				r.Step(now)
				got += len(r.Ejected())
				if live := ai + bi - got; r.InFlight() != live {
					t.Fatalf("cycle %d: InFlight %d, %d accepted and %d ejected", now, r.InFlight(), ai+bi, got)
				}
			}
			if got != 12 {
				t.Fatalf("delivered %d of 12 flits", got)
			}
			if nacks[tc.note] == 0 {
				t.Fatalf("no %q NACK observed although two packets contended for one output VC (NACKs: %v)", tc.note, nacks)
			}
		})
	}
}

func TestEventKindNames(t *testing.T) {
	names := map[router.EventKind]string{
		router.EvAccept:       "accept",
		router.EvGrant:        "grant",
		router.EvNack:         "nack",
		router.EvEject:        "eject",
		router.EventKind(999): "event",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
