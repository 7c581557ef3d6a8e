package sim

// Queue is a bounded FIFO implemented as a ring buffer. A capacity of
// zero means unbounded (the ring grows on demand); simulated hardware
// buffers always use a positive capacity while source queues are
// unbounded.
type Queue[T any] struct {
	buf  []T
	head int
	size int
	cap  int // 0 = unbounded
}

// NewQueue returns a queue with the given capacity. capacity <= 0 makes
// the queue unbounded.
func NewQueue[T any](capacity int) *Queue[T] {
	initial := capacity
	if initial <= 0 {
		initial = 8
	}
	return &Queue[T]{buf: make([]T, initial), cap: max(capacity, 0)}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// Full reports whether a bounded queue is at capacity. Unbounded queues
// are never full.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.size >= q.cap }

// Push appends v. It returns false (and drops nothing) when the queue is
// full — hardware models treat that as a flow-control violation and panic
// at the call site where it indicates a credit-accounting bug.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	if q.size == len(q.buf) {
		q.grow()
	}
	// head+size < 2*len always holds, so a compare-and-subtract wraps
	// the ring without the integer division of a modulo.
	idx := q.head + q.size
	if idx >= len(q.buf) {
		idx -= len(q.buf)
	}
	q.buf[idx] = v
	q.size++
	return true
}

// MustPush pushes v and panics if the queue is full. Use where flow
// control guarantees space and overflow indicates a simulator bug.
func (q *Queue[T]) MustPush(v T) {
	if !q.Push(v) {
		panic("sim: queue overflow (credit accounting bug)")
	}
}

// Peek returns the item at the front without removing it. ok is false
// when the queue is empty.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// Pop removes and returns the front item. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.size--
	return v, true
}

// MustPop pops and panics if the queue is empty.
func (q *Queue[T]) MustPop() T {
	v, ok := q.Pop()
	if !ok {
		panic("sim: pop from empty queue")
	}
	return v
}

func (q *Queue[T]) grow() {
	nbuf := make([]T, 2*len(q.buf))
	for i := 0; i < q.size; i++ {
		nbuf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nbuf
	q.head = 0
}
