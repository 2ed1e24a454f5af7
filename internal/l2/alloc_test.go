package l2

import (
	"testing"

	"repro/internal/creorder"
	"repro/internal/metrics"
	"repro/internal/zbox"
)

// TestMemoryPipelineZeroAlloc drives a warmed L2 + Zbox through rounds of
// scalar read, write, prefetch and WH64 misses, vector read and write slice
// misses, slices and scalar reads merging onto fills already in the MAF,
// MAF-full NACKs (slice and scalar), replays and dirty writebacks, and
// requires the steady state to allocate nothing at all.
func TestMemoryPipelineZeroAlloc(t *testing.T) {
	reg := metrics.NewRegistry()
	z := zbox.New(zbox.Config{
		Ports: 8, LineCycles: 16, BaseLatency: 100,
		RowBytes: 2048, DevicesPerPort: 32, RowMissCycles: 12, TurnCycles: 5,
	}, reg)
	c := New(Config{
		Bytes: 64 << 10, Assoc: 4, LineBytes: 64,
		ScalarLat: 12, VecLatPump: 34, VecLatOdd: 38,
		MAFSize: 64, ReplayThreshold: 8, RetryDelay: 6,
		SliceQueue: 16, PBitPenalty: 12,
	}, reg, z)
	st := reg.Stats()

	// Six line sets of 16 banks each; slices k and k+6 cover the same
	// lines, so the second one merges onto the first one's fills, and the
	// 96 distinct lines overflow the 64-entry MAF.
	const nSlices = 12
	var (
		elems [nSlices][creorder.NumBanks]creorder.Elem
		ops   [nSlices]SliceOp
	)
	done := 0
	sliceDone := func(uint64, any) { done++ }
	scalarDone := func(uint64, any) { done++ }

	cy := uint64(0)
	round := func(r uint64) {
		base := (r % 512) << 20 // fresh lines every round: all misses
		c.ScalarRead(cy, base+0x80000, scalarDone, nil)
		c.ScalarRead(cy, base+0x80040, scalarDone, nil)
		c.ScalarWrite(cy, base+0x90000, scalarDone, nil)
		c.ScalarPrefetch(cy, base+0xa0000)
		c.WH64(cy, base+0xb0000, scalarDone, nil)
		for k := range ops {
			set := base + uint64(k%6)*creorder.NumBanks*64
			for j := range elems[k] {
				elems[k][j] = creorder.Elem{Index: j, Addr: set + uint64(j)*64}
			}
			ops[k] = SliceOp{
				Slice: creorder.Slice{Tag: k, Elems: elems[k][:], QWords: creorder.NumBanks},
				Write: k%3 == 2, Done: sliceDone,
			}
			c.SubmitSlice(&ops[k])
		}
		// A scalar read of a line a vector slice is fetching waits on the
		// vector fill.
		c.ScalarRead(cy, base+0x40, scalarDone, nil)
		tick := func() {
			cy++
			z.Tick(cy)
			c.Tick(cy)
		}
		for i := 0; i < 20; i++ {
			tick()
		}
		// The MAF is full by now: these scalar misses are NACKed and
		// retried.
		c.ScalarRead(cy, base+0xc0000, scalarDone, nil)
		c.ScalarWrite(cy, base+0xd0000, scalarDone, nil)
		for c.Busy() || z.Busy() {
			tick()
		}
	}

	r := uint64(0)
	for ; r < 8; r++ { // warm-up: queues, MAF waiter lists and wheels grow
		round(r)
	}
	before := *st
	startCy, startDone := cy, done
	const rounds = 20
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < rounds; i++ {
			round(r)
			r++
		}
	})
	// AllocsPerRun runs the function twice (one warm-up call).
	if want := 2 * rounds * (nSlices + 7); done-startDone != want {
		t.Fatalf("%d completions, want %d", done-startDone, want)
	}
	cycles := cy - startCy
	if allocs != 0 {
		t.Fatalf("%v allocations over %d steady-state cycles (%.4f per cycle), want 0",
			allocs, cycles, allocs/float64(cycles))
	}

	// The rounds must really exercise every path the test claims.
	for name, n := range map[string]uint64{
		"misses":          st.L2Misses - before.L2Misses,
		"hits (replays)":  st.L2Hits - before.L2Hits,
		"slice replays":   st.L2SliceReplays - before.L2SliceReplays,
		"MAF-full stalls": st.MAFFullStalls - before.MAFFullStalls,
		"writebacks":      st.L2Writebacks - before.L2Writebacks,
		"memory reads":    st.MemReads - before.MemReads,
		"memory writes":   st.MemWrites - before.MemWrites,
	} {
		if n == 0 {
			t.Errorf("steady-state rounds never produced %s", name)
		}
	}
	if len(c.retryReqs) == 0 {
		t.Error("no scalar request was ever NACKed by a full MAF")
	}
	// Merging: each round reads 96 slice lines + 6 scalar lines from
	// memory, not the 192 + 7 line requests it issues.
	if reads := st.MemReads - before.MemReads; reads > 2*rounds*102 {
		t.Errorf("%d memory reads over %d rounds: fills were not merged", reads, 2*rounds)
	}
}
