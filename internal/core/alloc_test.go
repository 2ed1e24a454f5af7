package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/isa"
	"repro/internal/l2"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/vasm"
	"repro/internal/zbox"
)

// ev8Chip builds the EV8 baseline's core, 4 MB L2 and two-port Zbox (the
// Table 3 parameters sim.EV8 uses) without a Vbox.
func ev8Chip(reg *metrics.Registry) (*Core, *l2.L2, *zbox.Zbox) {
	z := zbox.New(zbox.Config{
		Ports: 2, LineCycles: 16, BaseLatency: 100,
		RowBytes: 2048, DevicesPerPort: 32, RowMissCycles: 12, TurnCycles: 5,
	}, reg)
	c2 := l2.New(l2.Config{
		Bytes: 4 << 20, Assoc: 8, LineBytes: 64,
		ScalarLat: 12, VecLatPump: 34, VecLatOdd: 38,
		MAFSize: 64, ReplayThreshold: 8, RetryDelay: 6,
		SliceQueue: 16, PBitPenalty: 12,
	}, reg, z)
	c := New(Config{
		FetchWidth: 8, RetireWidth: 8, ROBSize: 256,
		IntWidth: 8, FPWidth: 4, LoadWidth: 2, StoreWidth: 2,
		MispredictPenalty: 14,
		L1Bytes:           64 << 10, L1Assoc: 2, L1Line: 64, L1Lat: 3,
		MSHRs: 64, WriteBuffer: 32, StoreForwardLat: 3,
		DrainPenalty: 24, VBusWidth: 3,
	}, reg, c2, nil)
	return c, c2, z
}

// missKernel alternates bursts of sixteen heavy and sixteen light
// iterations. A heavy iteration streams through fresh lines (L1 and L2
// misses, a second load merging onto the first line's MSHR); five
// independent misses per iteration overflow the 64 MSHRs well inside the
// ROB. A light iteration prefetches a fresh line, which gets an MSHR of its
// own while the heavy burst's fills drain. Every iteration stores a value
// into a small ring and reads it straight back (store-to-load forwarding,
// chained on the store's data when that is a pending miss) and write-hints a
// second fresh stream (WH64 drains). One loop branch keeps the predictor's
// table fixed, and no producer has more than eight consumers.
func missKernel(iters int) vasm.Kernel {
	const stride = 5 * 64
	return func(b *vasm.Builder) {
		a := b.Alloc(uint64(iters)*stride, 64)
		w := b.Alloc(uint64(iters)*64, 64)
		ring := b.Alloc(512, 64)
		b.Li(isa.R(1), int64(a))
		b.Li(isa.R(8), int64(ring))
		b.Li(isa.R(9), int64(w))
		b.Loop(isa.R(16), iters, func(i int) {
			if i/16%2 == 0 {
				b.LdQ(isa.R(3), isa.R(1), 0)
				b.LdQ(isa.R(4), isa.R(1), 8)
				for l := int64(1); l < 5; l++ {
					b.LdQ(isa.R(9+int(l)), isa.R(1), l*64)
				}
			} else {
				b.Prefetch(isa.R(1), 0)
				b.Mov(isa.R(3), isa.R(5))
			}
			off := int64(i%64) * 8
			b.StQ(isa.R(3), isa.R(8), off)
			b.LdQ(isa.R(5), isa.R(8), off)
			b.WH64(isa.R(9), 0)
			b.AddImm(isa.R(9), isa.R(9), 64)
			b.AddImm(isa.R(1), isa.R(1), stride)
		})
	}
}

// TestScalarCoreZeroAlloc drives a warmed EV8 core + L2 + Zbox through L1
// misses, MSHR merges, prefetches, MSHR-full stalls, store-to-load
// forwarding and write-buffer drains, and requires the steady state to
// allocate nothing at all. The trace is collected up front and replayed, so
// only the timing models run inside the measurement.
func TestScalarCoreZeroAlloc(t *testing.T) {
	trace, err := vasm.CollectChecked(arch.New(mem.New()), missKernel(1500))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c, c2, z := ev8Chip(reg)
	tr := vasm.Replay(trace)
	c.Bind(tr)
	st := reg.Stats()

	// Coverage: how many cycles ended with each path in play.
	var cy, full, merging, prefetching, forwarding, draining uint64
	th := c.threads[0]
	tick := func() {
		cy++
		z.Tick(cy)
		c2.Tick(cy)
		c.Tick(cy)
		if c.mshr.Full() {
			full++
		}
		var waiters [3]bool // an occupied MSHR with 0, 1, 2+ waiters
		for i := range c.mshr.ents {
			if e := &c.mshr.ents[i]; c.mshr.find(e.key) == e {
				waiters[min(len(e.val), 2)] = true
			}
		}
		if waiters[0] {
			prefetching++
		}
		if waiters[2] {
			merging++
		}
		for i := range th.stores.ents {
			// Stores have no destination register: a consumer is a load
			// chained on the store's data by forwarding.
			if st := th.stores.ents[i].val; st != nil && len(st.Consumers) > 0 {
				forwarding++
				break
			}
		}
		if c.wbInFlight > 0 {
			draining++
		}
	}
	const warm, window = 4000, 4000
	for i := 0; i < warm; i++ { // uop pool, waiter lists, queues and wheels grow
		tick()
	}
	before := *st
	startCy := cy
	full, merging, prefetching, forwarding, draining = 0, 0, 0, 0, 0
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < window; i++ {
			tick()
		}
	})
	if c.Halted() || tr.Consumed() >= uint64(len(trace)) {
		t.Fatalf("trace ran dry after %d cycles; lengthen the kernel", cy)
	}
	if allocs != 0 {
		cycles := cy - startCy
		t.Fatalf("%v allocations over %d steady-state cycles (%.4f per cycle), want 0",
			allocs, cycles, allocs/float64(cycles))
	}

	// The window must really exercise every path the test claims.
	for name, n := range map[string]uint64{
		"L1 misses":                        st.L1Misses - before.L1Misses,
		"L2 misses":                        st.L2Misses - before.L2Misses,
		"retired instructions":             st.ScalarIns - before.ScalarIns,
		"MSHR-full cycles":                 full,
		"cycles with a merged MSHR":        merging,
		"cycles with a prefetch-only MSHR": prefetching,
		"cycles with a forwarded load":     forwarding,
		"cycles with a write-buffer drain": draining,
	} {
		if n == 0 {
			t.Errorf("steady-state window never produced %s", name)
		}
	}
}
