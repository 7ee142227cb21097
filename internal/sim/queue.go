package sim

// Queue is a FIFO ring buffer. Its backing array grows by doubling when a
// Push finds it full and never shrinks, so its capacity is bounded by the
// queue's peak length (rounded up to a power of two) however long the queue
// runs. Pops clear their slot so a dequeued pointer can be collected. The
// zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T
	head int
	n    int
}

// Len reports the number of queued values.
func (q *Queue[T]) Len() int { return q.n }

// Cap reports the capacity of the backing ring.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop from empty Queue")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Peek returns the head without removing it. It panics on an empty queue.
func (q *Queue[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek at empty Queue")
	}
	return q.buf[q.head]
}

// grow doubles the ring (minimum 4 slots), unwrapping the contents so the
// head lands at index zero.
func (q *Queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
