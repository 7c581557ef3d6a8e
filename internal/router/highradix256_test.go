package router_test

import (
	"testing"

	"highradix/internal/router"
	"highradix/internal/testbench"
)

// TestVeryHighRadixTreeArbitration exercises the >2-stage output
// arbiter path: at radix 256 with m=8 local groups the output arbiters
// are three-stage trees (the extension Section 4.1 sketches for very
// high radices). The full invariant battery must still hold.
func TestVeryHighRadixTreeArbitration(t *testing.T) {
	if testing.Short() {
		t.Skip("radix-256 drive skipped in short mode")
	}
	for _, a := range router.Registered() {
		d, _ := router.Describe(a)
		cfg := d.Variants(256, 2)[0].Config
		cfg.InputBufDepth = 8
		t.Run(d.Name+"-256", func(t *testing.T) {
			t.Parallel()
			drive(t, cfg, 600, 1, 21)
			drive(t, cfg, 150, 4, 22)
		})
	}
}

// TestRadix256Checked runs a short radix-256 load through the testbench
// with the cycle-level invariant checker armed for all four
// architectures — the conformance pass CI's race job drives. The flat
// crosspoint banks, rotor banks, and credit rings must uphold every
// credit, buffer, and ownership invariant at the full 256-port scale.
func TestRadix256Checked(t *testing.T) {
	if testing.Short() {
		t.Skip("radix-256 checked run skipped in short mode")
	}
	for _, arch := range router.Registered() {
		d, _ := router.Describe(arch)
		cfg := d.Variants(256, 0)[0].Config
		t.Run(arch.String(), func(t *testing.T) {
			t.Parallel()
			_, err := testbench.Run(testbench.Options{
				Router:        cfg,
				Load:          0.5,
				WarmupCycles:  50,
				MeasureCycles: 300,
				DrainCycles:   2000,
				Seed:          31,
				Check:         true,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
