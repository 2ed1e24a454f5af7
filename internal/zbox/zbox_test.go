package zbox

import (
	"testing"

	"repro/internal/metrics"
)

func testCfg() Config {
	return Config{
		Ports:          8,
		LineCycles:     16,
		BaseLatency:    100,
		RowBytes:       2048,
		DevicesPerPort: 32,
		RowMissCycles:  12,
		TurnCycles:     5,
	}
}

// drive advances the controller until quiescent, returning the final cycle.
func drive(z *Zbox, from uint64, max uint64) uint64 {
	cy := from
	for z.Busy() && cy < from+max {
		cy++
		z.Tick(cy)
	}
	return cy
}

func TestSingleReadLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	z := New(testCfg(), reg)
	st := reg.Stats()
	var done uint64
	z.Request(0x1000, Read, func(cy uint64, _ any) { done = cy }, nil)
	end := drive(z, 0, 10_000)
	if done == 0 {
		t.Fatalf("read never completed (end cycle %d)", end)
	}
	// occupancy 16 + row miss 12 + base latency 100, started at cycle 1.
	want := uint64(1 + 16 + 12 + 100)
	if done != want {
		t.Fatalf("read done at %d, want %d", done, want)
	}
	if st.MemReads != 1 || st.RowActivates != 1 {
		t.Fatalf("counters: reads=%d activates=%d", st.MemReads, st.RowActivates)
	}
}

func TestRowHitVsMiss(t *testing.T) {
	reg := metrics.NewRegistry()
	z := New(testCfg(), reg)
	st := reg.Stats()
	// Reads on different ports each open their own row.
	z.Request(0x0, Read, nil, nil)  // port 0
	z.Request(0x40, Read, nil, nil) // port 1
	drive(z, 0, 10_000)
	if st.RowActivates != 2 {
		t.Fatalf("expected 2 activates on distinct ports, got %d", st.RowActivates)
	}
	// Same port, same row: second should hit the open row.
	reg2 := metrics.NewRegistry()
	z2 := New(testCfg(), reg2)
	st2 := reg2.Stats()
	z2.Request(0x0, Read, nil, nil)
	z2.Request(0x0+8*64, Read, nil, nil) // +512B: port = same (addr>>6 mod 8), row same
	drive(z2, 0, 10_000)
	if st2.RowActivates != 1 || st2.RowHits != 1 {
		t.Fatalf("activates=%d hits=%d, want 1/1", st2.RowActivates, st2.RowHits)
	}
}

func TestReadWriteTurnaround(t *testing.T) {
	reg := metrics.NewRegistry()
	z := New(testCfg(), reg)
	st := reg.Stats()
	z.Request(0x0, Read, nil, nil)
	z.Request(0x0+512, Write, nil, nil)
	z.Request(0x0+1024, Read, nil, nil)
	drive(z, 0, 10_000)
	if st.Turnarounds != 2 {
		t.Fatalf("turnarounds = %d, want 2 (read→write→read)", st.Turnarounds)
	}
}

func TestPortParallelism(t *testing.T) {
	// N lines spread over all 8 ports should take ~1/8 the time of N lines
	// on one port.
	cfg := testCfg()
	timeFor := func(stride uint64) uint64 {
		reg := metrics.NewRegistry()
		z := New(cfg, reg)
		var last uint64
		for i := uint64(0); i < 64; i++ {
			z.Request(i*stride, Read, func(cy uint64, _ any) { last = cy }, nil)
		}
		drive(z, 0, 100_000)
		return last
	}
	spread := timeFor(64)     // consecutive lines: round-robin over ports
	single := timeFor(8 * 64) // every 8th line: same port every time
	if single < 4*spread {
		t.Fatalf("port parallelism missing: single-port %d vs spread %d", single, spread)
	}
}

func TestDirOpCountsInRawTraffic(t *testing.T) {
	reg := metrics.NewRegistry()
	z := New(testCfg(), reg)
	st := reg.Stats()
	z.Request(0x40, DirOp, nil, nil)
	drive(z, 0, 10_000)
	if st.MemDirOps != 1 {
		t.Fatalf("dir ops = %d", st.MemDirOps)
	}
	if st.RawMemBytes() != 64 {
		t.Fatalf("raw bytes = %d, want 64", st.RawMemBytes())
	}
}

func TestBandwidthUnderLoad(t *testing.T) {
	// Saturate all ports with a sequential stream: sustained throughput
	// should approach one line per LineCycles per port.
	cfg := testCfg()
	reg := metrics.NewRegistry()
	z := New(cfg, reg)
	const n = 800
	for i := uint64(0); i < n; i++ {
		z.Request(i*64, Read, nil, nil)
	}
	end := drive(z, 0, 1_000_000)
	perPort := n / uint64(cfg.Ports)
	ideal := perPort * uint64(cfg.LineCycles)
	if end > ideal*3/2 {
		t.Fatalf("sequential stream took %d cycles, ideal ~%d", end, ideal)
	}
}

func TestRandomStreamActivatesMoreRows(t *testing.T) {
	cfg := testCfg()
	regSeq := metrics.NewRegistry()
	z := New(cfg, regSeq)
	seq := regSeq.Stats()
	for i := uint64(0); i < 256; i++ {
		z.Request(i*64, Read, nil, nil)
	}
	drive(z, 0, 1_000_000)

	regRnd := metrics.NewRegistry()
	z2 := New(cfg, regRnd)
	rnd := regRnd.Stats()
	for i := uint64(0); i < 256; i++ {
		// Large-stride pseudo-random addresses thrash the open rows —
		// the RndMemScale effect ("2.5X more row activates", §6).
		z2.Request((i*2654435761)%(1<<26)&^63, Read, nil, nil)
	}
	drive(z2, 0, 1_000_000)

	if rnd.RowActivates < 2*seq.RowActivates {
		t.Fatalf("random activates %d not >> sequential %d", rnd.RowActivates, seq.RowActivates)
	}
}

func TestCompletionOrderWithinPort(t *testing.T) {
	reg := metrics.NewRegistry()
	z := New(testCfg(), reg)
	var order []int
	for i := 0; i < 4; i++ {
		z.Request(uint64(i)*512*8, Read, func(_ uint64, arg any) { order = append(order, arg.(int)) }, i)
	}
	drive(z, 0, 100_000)
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("same-port requests completed out of order: %v", order)
		}
	}
}
