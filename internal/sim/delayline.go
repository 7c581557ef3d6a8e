package sim

// DelayLine models a fixed-latency pipeline segment (e.g. the request
// wires between input arbiters and output arbiters in the distributed
// switch allocator, or the row bus a flit is serialized onto). Items
// pushed at cycle t become visible exactly at cycle t+latency.
//
// The zero latency case is supported: items become visible in the same
// cycle they are pushed, which models combinational paths.
type DelayLine[T any] struct {
	latency int64
	items   *Queue[timed[T]]
}

type timed[T any] struct {
	at int64
	v  T
}

// NoWake is the NextAt/NextWake sentinel for "no future event": far
// enough ahead that it never compares below a real cycle, yet far from
// int64 overflow when offsets are added to it.
const NoWake = int64(1) << 62

// NewDelayLine returns a delay line with the given latency in cycles.
func NewDelayLine[T any](latency int) *DelayLine[T] {
	if latency < 0 {
		panic("sim: negative delay line latency")
	}
	return &DelayLine[T]{latency: int64(latency), items: NewQueue[timed[T]](0)}
}

// Len reports the number of items in flight.
func (d *DelayLine[T]) Len() int { return d.items.Len() }

// Push inserts v at cycle now; it arrives at now+latency.
func (d *DelayLine[T]) Push(now int64, v T) {
	d.items.MustPush(timed[T]{at: now + d.latency, v: v})
}

// NextAt returns the arrival cycle of the earliest item in flight.
// Arrivals are FIFO-ordered (Push adds a fixed latency to a
// nondecreasing now), so the front item is the earliest. ok is false
// when the line is empty.
func (d *DelayLine[T]) NextAt() (int64, bool) {
	front, exists := d.items.Peek()
	if !exists {
		return 0, false
	}
	return front.at, true
}

// PopReady removes and returns the front item if it has arrived by cycle
// now. ok is false when nothing is ready.
func (d *DelayLine[T]) PopReady(now int64) (v T, ok bool) {
	front, exists := d.items.Peek()
	if !exists || front.at > now {
		var zero T
		return zero, false
	}
	d.items.MustPop()
	return front.v, true
}

// DrainReady calls fn for every item that has arrived by cycle now,
// removing them in FIFO order.
func (d *DelayLine[T]) DrainReady(now int64, fn func(T)) {
	for {
		v, ok := d.PopReady(now)
		if !ok {
			return
		}
		fn(v)
	}
}
