package area

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWireAreaGrowsWithRadix(t *testing.T) {
	m := Default()
	prev := 0.0
	for _, k := range []int{8, 16, 32, 64, 128, 256} {
		w := m.WireAreaMm2(k, 4)
		if w <= prev {
			t.Fatalf("wire area not increasing at k=%d: %v <= %v", k, w, prev)
		}
		prev = w
	}
}

func TestMonotonicityProperties(t *testing.T) {
	m := Default()
	err := quick.Check(func(a, b, c uint8) bool {
		k1 := int(a%200) + 8
		k2 := k1 + int(b%100) + 1
		v := int(c%8) + 1
		return m.WireAreaMm2(k2, v) > m.WireAreaMm2(k1, v) &&
			m.WireAreaMm2(k1, v+1) > m.WireAreaMm2(k1, v) &&
			m.StorageBits(k2) > m.StorageBits(k1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStorageAreaConversion(t *testing.T) {
	m := Default()
	if got := m.StorageBits(1000); got != 1000*float64(m.FlitBits) {
		t.Fatalf("StorageBits = %v", got)
	}
	if got := m.StorageAreaMm2(1e6); math.Abs(got-1e6*m.BitCellUm2*1e-6) > 1e-12 {
		t.Fatalf("StorageAreaMm2 = %v", got)
	}
}
