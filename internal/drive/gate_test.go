package drive

import (
	"runtime"
	"testing"
)

// TestGateHandsOff ping-pongs a counter between two goroutines through
// a pair of gates, as a shard coordinator and a worker do each epoch,
// and checks every read sees the write posted before it — with the
// spin the simulator uses and with none, so that every wait parks.
// Under the race detector it fails if a wake-up meant for an earlier
// count releases a later wait.
func TestGateHandsOff(t *testing.T) {
	for _, sp := range []int{spins, 0} {
		handOff(t, sp)
	}
}

func handOff(t *testing.T, budget int) {
	const rounds = 20000
	var start, done Gate
	start.Init()
	done.Init()
	start.spins, done.spins = budget, budget
	var shared int64
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for n := int64(1); n <= rounds; n++ {
			start.Wait(n)
			shared = n
			done.Post(n)
		}
	}()
	for n := int64(1); n <= rounds; n++ {
		start.Post(n)
		done.Wait(n)
		if shared != n {
			t.Errorf("spins %d: round %d read %d", budget, n, shared)
			start.Post(rounds) // let the other side run out
			break
		}
	}
	<-exited
}

// TestClaimSpare: ClaimSpare grants what is left under GOMAXPROCS and
// never more — part of a request when only part fits, nothing when the
// budget is full or already over — and its release returns exactly the
// grant.
func TestClaimSpare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer Claim(1)()
	counted := threads.Load()
	want := max(4-counted, 0)
	got, release := ClaimSpare(5)
	if int64(got) != want || threads.Load() != counted+want {
		t.Fatalf("with %d counted of 4, ClaimSpare(5) granted %d and left %d counted", counted, got, threads.Load())
	}
	if again, _ := ClaimSpare(1); again != 0 {
		t.Errorf("a full budget granted %d", again)
	}
	release()
	if threads.Load() != counted {
		t.Errorf("after the release %d are counted, want %d", threads.Load(), counted)
	}
	defer Claim(4)()
	if got, _ := ClaimSpare(2); got != 0 || threads.Load() != counted+4 {
		t.Errorf("an oversubscribed budget granted %d", got)
	}
}
