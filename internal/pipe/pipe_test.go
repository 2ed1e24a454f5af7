package pipe

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/isa"
)

func TestReadyQueueOldestFirst(t *testing.T) {
	var q ReadyQueue
	for _, seq := range []uint64{5, 1, 9, 3, 7} {
		q.Push(&UOp{Seq: seq})
	}
	var got []uint64
	for q.Len() > 0 {
		got = append(got, q.Pop().Seq)
	}
	want := []uint64{1, 3, 5, 7, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order %v, want %v", got, want)
		}
	}
}

// TestReadyQueueProperty interleaves seeded pushes and pops (unique
// sequence numbers, as the schedulers guarantee) and checks every pop and
// peek against a sorted reference.
func TestReadyQueueProperty(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q ReadyQueue
		var ref []uint64 // sorted ascending
		used := map[uint64]bool{}
		for step := 0; step < 400; step++ {
			if len(ref) == 0 || rng.Intn(3) != 0 {
				s := uint64(rng.Intn(1 << 12))
				for used[s] {
					s = uint64(rng.Intn(1 << 12))
				}
				used[s] = true
				q.Push(&UOp{Seq: s})
				i := sort.Search(len(ref), func(i int) bool { return ref[i] > s })
				ref = append(ref, 0)
				copy(ref[i+1:], ref[i:])
				ref[i] = s
			} else {
				if got := q.Peek().Seq; got != ref[0] {
					t.Fatalf("seed %d step %d: Peek %d, want %d", seed, step, got, ref[0])
				}
				if got := q.Pop().Seq; got != ref[0] {
					t.Fatalf("seed %d step %d: Pop %d, want %d", seed, step, got, ref[0])
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d, want %d", seed, step, q.Len(), len(ref))
			}
		}
		for _, want := range ref {
			if got := q.Pop().Seq; got != want {
				t.Fatalf("seed %d drain: Pop %d, want %d", seed, got, want)
			}
		}
	}
}

// TestReadyQueueSteadyStateAllocFree: once the heap has reached its working
// depth, pushes and pops allocate nothing.
func TestReadyQueueSteadyStateAllocFree(t *testing.T) {
	var q ReadyQueue
	ops := make([]UOp, 64)
	for i := range ops {
		ops[i].Seq = uint64(len(ops) - i)
		q.Push(&ops[i])
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range ops {
			q.Push(&ops[i])
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per push/pop round, want 0", allocs)
	}
}

func TestFUPoolWidth(t *testing.T) {
	p := NewFUPool(2)
	if !p.TryIssue(1, 1) || !p.TryIssue(1, 1) {
		t.Fatal("pool of width 2 must accept two ops in one cycle")
	}
	if p.TryIssue(1, 1) {
		t.Fatal("third issue in one cycle must fail")
	}
	if !p.TryIssue(2, 1) {
		t.Fatal("next cycle must accept again")
	}
}

func TestFUPoolUnpipelined(t *testing.T) {
	p := NewFUPool(1)
	if !p.TryIssue(1, 10) {
		t.Fatal("first unpipelined op must issue")
	}
	for cy := uint64(2); cy <= 10; cy++ {
		if p.TryIssue(cy, 10) {
			t.Fatalf("unit should be busy at cycle %d", cy)
		}
	}
	if !p.TryIssue(11, 10) {
		t.Fatal("unit must free at cycle 11")
	}
}

func TestFUPoolZeroWidth(t *testing.T) {
	p := NewFUPool(0)
	if p.TryIssue(1, 1) {
		t.Fatal("zero-width pool must never issue")
	}
}

func TestPredictorLoopBranch(t *testing.T) {
	p := NewPredictor()
	// A loop branch: taken 9 times, then not taken.
	mis := 0
	for i := 0; i < 9; i++ {
		if p.Predict(1, true) {
			mis++
		}
	}
	if mis != 0 {
		t.Fatalf("loop iterations mispredicted %d times", mis)
	}
	if !p.Predict(1, false) {
		t.Fatal("loop exit should mispredict")
	}
	// Re-entering the loop: the 2-bit counter recovers within one step.
	wrong := 0
	for i := 0; i < 5; i++ {
		if p.Predict(1, true) {
			wrong++
		}
	}
	if wrong > 1 {
		t.Fatalf("re-entry mispredicted %d times, want ≤1", wrong)
	}
}

func TestPredictorAlternating(t *testing.T) {
	p := NewPredictor()
	mis := 0
	for i := 0; i < 100; i++ {
		if p.Predict(7, i%2 == 0) {
			mis++
		}
	}
	// A 2-bit counter cannot do better than ~50% on alternation.
	if mis < 40 {
		t.Fatalf("alternating pattern mispredicted only %d/100 — too clairvoyant", mis)
	}
}

func TestUOpMarkReady(t *testing.T) {
	u := &UOp{Inst: isa.Inst{Op: isa.OpVADDT}}
	u.MarkReady(10)
	if u.State != StateReady || u.ReadyCyc != 10 {
		t.Fatalf("state=%v readyCyc=%d", u.State, u.ReadyCyc)
	}
	u.MarkReady(5) // earlier wake must not move ReadyCyc backwards
	if u.ReadyCyc != 10 {
		t.Fatalf("ReadyCyc regressed to %d", u.ReadyCyc)
	}
}
