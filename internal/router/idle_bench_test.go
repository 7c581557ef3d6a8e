package router_test

import (
	"fmt"
	"testing"

	"highradix/internal/router"
)

// Idle-router microbenchmarks: the cost a driver pays per cycle for a
// router that holds no flits. Dense stepping pays BenchmarkIdleStep
// (the full stage scan, O(radix) even when nothing happens); a
// quiescence-aware driver pays only BenchmarkIdleNextWake (a few counter
// reads, O(1)). The radix-64 vs radix-256 pairs make the asymptotic
// difference visible: the Step cost grows with radix, the NextWake
// cost does not.
func benchIdle(b *testing.B, arch router.Arch, radix int, step bool) {
	b.Helper()
	d, ok := router.Describe(arch)
	if !ok {
		b.Fatalf("architecture %v not registered", arch)
	}
	vcs := 0
	if radix > 64 {
		vcs = 2
	}
	cfg := d.Variants(radix, vcs)[0].Config
	r, err := router.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if step {
		for n := 0; n < b.N; n++ {
			r.Step(int64(n))
		}
		return
	}
	sink := int64(0)
	for n := 0; n < b.N; n++ {
		sink += r.NextWake(int64(n))
	}
	_ = sink
}

func BenchmarkIdleStep(b *testing.B) {
	for _, arch := range router.Registered() {
		for _, radix := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/k%d", arch, radix), func(b *testing.B) {
				benchIdle(b, arch, radix, true)
			})
		}
	}
}

func BenchmarkIdleNextWake(b *testing.B) {
	for _, arch := range router.Registered() {
		for _, radix := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/k%d", arch, radix), func(b *testing.B) {
				benchIdle(b, arch, radix, false)
			})
		}
	}
}
