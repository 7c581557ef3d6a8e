package sim

// Accessors only the tests read.

// Free reports remaining slots in a bounded queue; for unbounded queues
// it returns a large positive number.
func (q *Queue[T]) Free() int {
	if q.cap == 0 {
		return int(^uint(0) >> 1)
	}
	return q.cap - q.size
}

// Len reports the number of pending events.
func (w *Wheel) Len() int { return w.cal.Len() }

// Buckets reports the length of the calendar's ring.
func (c *Calendar[T]) Buckets() int { return len(c.buckets) }
