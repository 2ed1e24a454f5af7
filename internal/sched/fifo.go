package sched

// FIFO is the first-in first-out queue the simulated hardware queues use
// (L2 slice and scalar queues, Zbox port queues, Vbox slice submission
// queues). It is a ring buffer that doubles when full and never shrinks, so
// a queue that has reached its working depth pushes and pops without
// allocating — unlike the `q = q[1:]` slice idiom, whose append must regrow
// the backing array as its head walks off the front. The zero value is an
// empty queue ready to use. Not safe for concurrent use.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the front element
	n    int // number of queued elements
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the back.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the front element without removing it. It panics on an
// empty queue.
func (q *FIFO[T]) Front() T {
	if q.n == 0 {
		panic("sched: FIFO Front of empty queue")
	}
	return q.buf[q.head]
}

// Pop removes and returns the front element. It panics on an empty queue.
// The vacated slot is zeroed so the queue does not keep what it held alive.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sched: FIFO Pop of empty queue")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring (minimum 8 slots), unwrapping it to start at 0.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
