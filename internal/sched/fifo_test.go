package sched

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSliceModel drives a Queue and a plain-slice model through the
// same random push/pop sequence, across several ring growths and
// wrap-arounds, and requires identical contents throughout.
func TestFIFOMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		if len(model) == 0 || rng.Intn(3) != 0 {
			q.Push(next)
			model = append(model, next)
			next++
		} else {
			if got, want := q.Pop(), model[0]; got != want {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
			}
			model = model[1:]
		}
		if q.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(model))
		}
		if len(model) > 0 && q.Front() != model[0] {
			t.Fatalf("step %d: Front = %d, want %d", step, q.Front(), model[0])
		}
	}
}

// TestFIFOSteadyStateAllocFree: once a queue has reached its working depth,
// pushes and pops must not allocate, however far the head travels.
func TestFIFOSteadyStateAllocFree(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	for i := 0; i < 16; i++ {
		q.Push(v)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f times", allocs)
	}
}

// TestFIFOPopReleasesSlot: a popped pointer must not stay reachable from the
// ring, or long-lived queues would pin the objects they once held.
func TestFIFOPopReleasesSlot(t *testing.T) {
	var q FIFO[*int]
	q.Push(new(int))
	q.Pop()
	for _, p := range q.buf {
		if p != nil {
			t.Fatal("popped element still referenced by the ring")
		}
	}
}

func TestFIFOEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(*FIFO[int]){
		"Pop":   func(q *FIFO[int]) { q.Pop() },
		"Front": func(q *FIFO[int]) { q.Front() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty queue did not panic", name)
				}
			}()
			f(new(FIFO[int]))
		}()
	}
}
