package traffic

import (
	"strings"
	"testing"

	"highradix/internal/sim"
)

func TestLoadTrace(t *testing.T) {
	in := `# a comment
5,1,2,3

0,0,1
7 , 3 , 4 , 2
`
	tr, err := LoadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	es := tr.Entries()
	// Sorted by cycle: 0, 5, 7.
	if es[0] != (TraceEntry{Cycle: 0, Src: 0, Dst: 1, Len: 1}) {
		t.Fatalf("entry 0 = %+v", es[0])
	}
	if es[1] != (TraceEntry{Cycle: 5, Src: 1, Dst: 2, Len: 3}) {
		t.Fatalf("entry 1 = %+v", es[1])
	}
	if es[2] != (TraceEntry{Cycle: 7, Src: 3, Dst: 4, Len: 2}) {
		t.Fatalf("entry 2 = %+v", es[2])
	}
	if tr.Duration() != 7 {
		t.Fatalf("Duration = %d", tr.Duration())
	}
}

func TestLoadTraceErrors(t *testing.T) {
	bad := []string{
		"1,2",       // too few fields
		"x,1,2",     // bad cycle
		"1,y,2",     // bad src
		"1,2,z",     // bad dst
		"1,2,3,w",   // bad len
		"-1,2,3",    // negative cycle
		"1,2,3,0",   // zero length
		"1,2,3,4,5", // too many fields
	}
	for _, in := range bad {
		if _, err := LoadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	rng := sim.NewRNG(1)
	tr := GenerateTrace(rng, 8, 200, 0.1, 2, NewUniform(8))
	if tr.Len() == 0 {
		t.Fatal("generated empty trace")
	}
	var b strings.Builder
	if _, err := tr.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip lost entries: %d vs %d", back.Len(), tr.Len())
	}
	for i, e := range back.Entries() {
		if e != tr.Entries()[i] {
			t.Fatalf("entry %d: %+v vs %+v", i, e, tr.Entries()[i])
		}
	}
}

func TestGenerateTraceRate(t *testing.T) {
	rng := sim.NewRNG(2)
	const k, cycles, rate = 16, 5000, 0.05
	tr := GenerateTrace(rng, k, cycles, rate, 1, NewUniform(k))
	want := float64(k * cycles * rate)
	got := float64(tr.Len())
	if got < 0.9*want || got > 1.1*want {
		t.Fatalf("trace has %v packets, want ~%v", got, want)
	}
}
