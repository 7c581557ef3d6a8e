package network_test

import (
	"fmt"
	"math"
	"testing"

	"highradix/internal/analytic"
	"highradix/internal/network"
)

// TestZeroLoadIsEquationTwo holds the engine to Equation (2) in cycles:
// at near-zero load a packet's latency over a Clos of 2d-1 stages is
// (2d-1)(tr+1) + ser, with tr and ser the analytic model's (one link
// cycle per hop on top of the pipeline delay, serialization paid once).
// Every feasible radix of a 4096-terminal network is run, so the model
// and the simulator cannot drift apart at any of them, and the model's
// answer is pinned, so neither can move alone.
func TestZeroLoadIsEquationTwo(t *testing.T) {
	for _, tc := range []struct{ k, d, cycles int }{{4, 6, 89}, {8, 4, 64}, {16, 3, 51}, {64, 2, 40}} {
		t.Run(fmt.Sprintf("k%dd%d", tc.k, tc.d), func(t *testing.T) {
			tr, ser := analytic.Cycles(tc.k)
			if got := (2*tc.d-1)*(tr+1) + ser; got != tc.cycles {
				t.Fatalf("(2d-1)(tr+1)+ser = %d (tr %d, ser %d), want %d", got, tr, ser, tc.cycles)
			}
			want := float64(tc.cycles)
			// Contention at load 0.02 adds under 0.2 cycles, and seeds
			// differ by hundredths of a cycle, so one short run suffices.
			res, err := network.RunSerial(network.Options{
				Net:           network.Config{Radix: tc.k, Digits: tc.d},
				Load:          0.02,
				WarmupCycles:  200,
				MeasureCycles: 600,
				Seed:          1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Packets == 0 || res.Saturated {
				t.Fatalf("%d packets, saturated %v; want an unsaturated run with packets", res.Packets, res.Saturated)
			}
			if math.Abs(res.AvgLatency-want) > 0.2 {
				t.Errorf("zero-load latency %.2f cycles, want (2d-1)(tr+1)+ser = %.0f (tr %d, ser %d)", res.AvgLatency, want, tr, ser)
			}
		})
	}
}
