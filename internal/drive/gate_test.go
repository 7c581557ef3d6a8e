package drive

import "testing"

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
