package workloads

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// TestResultDoesNotPinChip: a Result is memoised by tables.Runner and stored
// by serve, so it must not keep the simulated chip reachable — T's 16 MB L2
// tag store alone is megabytes of heap. Results of runs with and without a
// warm-up phase are both checked.
func TestResultDoesNotPinChip(t *testing.T) {
	for _, name := range []string{"streams_copy", "rndcopy"} {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		res, err := b.Run(sim.T(), Test)
		if err != nil {
			t.Fatal(err)
		}
		held := liveHeap()
		runtime.KeepAlive(res)
		const limit = 1 << 20
		if held > before && held-before > limit {
			t.Errorf("%s: holding its Result keeps %.1f MiB of heap live, want < %.1f MiB",
				name, float64(held-before)/(1<<20), float64(limit)/(1<<20))
		}
	}
}

// liveHeap returns the bytes of heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
