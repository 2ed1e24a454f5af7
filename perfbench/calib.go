package main

import (
	"time"
)

// The host this benchmark runs on is a shared VM whose speed drifts by
// 15–35% over minutes as its neighbours' load changes. No statistic within
// one run removes that drift, so every end-to-end time is also measured
// against a fixed reference loop that runs between the workload's chunks:
// a time in reference seconds is the wall time multiplied by
// refUnit ÷ (the reference unit's measured time next to it). A slow spell
// of the host slows the reference loop too and cancels out; a change to the
// program does not touch the loop and shows in full.
//
// The reference loop is part of the benchmark's definition: changing it or
// refUnit changes every reported time.

// refUnit sets the scale of a reference second: about the time one unit
// takes on the 2-vCPU x86-64 host the benchmark was calibrated on
// (go1.24.0), where it ranged from 9 to 14 ms with the host's drift.
const refUnit = 10 * time.Millisecond

// Probing: after each timed chunk the reference loop runs for probeShare of
// the chunk's wall time, and for at least probeMin.
const (
	probeShare = 0.25
	probeMin   = 20 * time.Millisecond
)

// refTable is the reference loop's random-read table: 8 MiB, larger than a
// core's private caches, as the simulator's working set is.
var refTable = func() []uint64 {
	t := make([]uint64, 1<<20)
	for i := range t {
		t[i] = uint64(i) * 2654435761
	}
	return t
}()

var refSink uint64

// refMap is the reference loop's map, allocated once: the loop allocates
// nothing after start-up, so it never starts a garbage collection that
// would have to scan the workload's heap.
var refMap = make(map[uint64]uint64, 1<<14)

// refUnitWork is one unit of the reference loop. Its three parts mirror the
// simulator's host profile: integer ALU work, random reads over a table
// larger than the private caches, and map updates. It runs on one
// goroutine: a hand-off between goroutines would time the scheduler's
// wake-ups, which depend on how many threads the workload left idle.
func refUnitWork() {
	// Integer ALU work.
	x := uint64(1)
	for i := 0; i < 1070000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	// Random reads.
	y, acc := x|1, uint64(0)
	for i := 0; i < 570000; i++ {
		y ^= y << 13
		y ^= y >> 7
		y ^= y << 17
		acc += refTable[y&uint64(len(refTable)-1)]
	}
	// Map updates.
	clear(refMap)
	for i := 0; i < 73000; i++ {
		y = y*6364136223846793005 + 1442695040888963407
		refMap[y>>50] += y
	}
	refSink += x + acc + uint64(len(refMap))
}

// hostClock times a workload's chunks and runs the reference loop after
// each, so each pass's times can be put in reference seconds. A nil
// *hostClock times chunks without probing (traced passes, whose raw times
// only give the tracing overhead).
type hostClock struct {
	probed time.Duration // reference-loop time since the last take
	units  int
}

// probe runs whole reference units for probeShare of after, at least
// probeMin.
func (h *hostClock) probe(after time.Duration) {
	if h == nil {
		return
	}
	want := max(probeMin, time.Duration(probeShare*float64(after)))
	t0 := time.Now()
	for time.Since(t0) < want {
		refUnitWork()
		h.units++
	}
	h.probed += time.Since(t0)
}

// speed returns refUnit ÷ the mean reference unit time measured since the
// last call, and starts a new measurement: a wall time multiplied by it is
// in reference seconds. It is 0 when nothing was probed.
func (h *hostClock) speed() float64 {
	if h == nil || h.units == 0 {
		return 0
	}
	s := float64(refUnit) * float64(h.units) / float64(h.probed)
	h.probed, h.units = 0, 0
	return s
}

// run times fn in wall and process CPU time, adds both to ps and then
// probes the host for the chunk.
func (h *hostClock) run(ps *passStats, fn func() error) error {
	t0, c0 := time.Now(), cpuNow()
	err := fn()
	wall := time.Since(t0)
	ps.wall += wall
	ps.cpu += cpuNow() - c0
	h.probe(wall)
	return err
}
