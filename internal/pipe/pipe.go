// Package pipe holds the building blocks shared by the EV8 core and Vbox
// timing models: the in-flight micro-op record with its dataflow links, an
// event wheel for completion scheduling, per-class functional-unit pools,
// and the branch predictor.
package pipe

import (
	"repro/internal/arch"
	"repro/internal/isa"
)

// State tracks a micro-op through the pipeline.
type State uint8

const (
	// StateWaiting: renamed, waiting on source operands.
	StateWaiting State = iota
	// StateReady: all sources available, waiting for an issue slot.
	StateReady
	// StateIssued: executing (or walking the memory pipeline).
	StateIssued
	// StateDone: result available; waits in the ROB for in-order retire.
	StateDone
	// StateRetired: left the machine.
	StateRetired
)

// UOp is one in-flight dynamic instruction. The same record flows through
// the core and, for vector instructions, the Vbox (the paper's narrow
// interface: the core fetches, renames and retires on the Vbox's behalf).
type UOp struct {
	Seq  uint64
	Site uint32
	Inst isa.Inst
	Eff  arch.Effect

	State State

	// Dataflow: deps counts unresolved sources; Consumers are woken when
	// this op completes.
	Deps      int
	Consumers []*UOp

	FetchCyc uint64
	ReadyCyc uint64 // cycle all operands became available
	DoneCyc  uint64

	// VBox bookkeeping.
	SlicesOut int  // slices still in flight in the L2
	InVbox    bool // dispatched over the 3-instruction bus
	AgenDone  bool // address generation finished
	ScalarsIn bool // scalar operands transferred over the operand buses
}

// MarkReady transitions the op to Ready at cycle c, recording when its last
// operand arrived.
func (u *UOp) MarkReady(c uint64) {
	u.State = StateReady
	if c > u.ReadyCyc {
		u.ReadyCyc = c
	}
}

// ---- ready queue (oldest-first issue policy) ----
//
// (The event wheel that used to live here is now sched.Wheel: a hierarchical
// timing wheel with O(1) amortised At/Advance/Next, shared by every
// component. The map-based multimap made Next() an O(pending) scan, which
// dominated the simulator's profile once the chip loop went event-driven.)

// ReadyQueue is a binary min-heap of ready ops ordered by sequence number,
// so the schedulers issue oldest-first like real wakeup/select logic. It is
// typed on *UOp (no container/heap interface boxing) and keeps its backing
// array, so pushes and pops allocate nothing once it reaches working depth.
// Sequence numbers are unique, so the pop order is fully determined.
type ReadyQueue struct{ h []*UOp }

// Push adds u to the queue.
func (q *ReadyQueue) Push(u *UOp) {
	q.h = append(q.h, u)
	// Sift the new last element up: move parents down into the hole until
	// one is older than u.
	h := q.h
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[i].Seq <= u.Seq {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = u
}

// Pop removes and returns the oldest op. It panics on an empty queue.
func (q *ReadyQueue) Pop() *UOp {
	h := q.h
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = nil
	h = h[:n]
	q.h = h
	if n == 0 {
		return top
	}
	// Sift the former last element down from the root: move the older
	// child up into the hole until last is older than both children.
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].Seq < h[j].Seq {
			j = j2
		}
		if h[j].Seq >= last.Seq {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = last
	return top
}

// Peek returns the oldest op without removing it.
func (q *ReadyQueue) Peek() *UOp { return q.h[0] }

// Len returns the number of queued ops.
func (q *ReadyQueue) Len() int { return len(q.h) }

// ---- functional unit pools ----

// FUPool enforces per-cycle issue limits for one class of functional units,
// plus busy periods for unpipelined units (divide/sqrt).
type FUPool struct {
	Width     int      // issues per cycle when pipelined
	busyUntil []uint64 // per-unit next-free cycle (unpipelined reservations)
	usedAt    uint64   // cycle the per-cycle counter refers to
	used      int
}

// NewFUPool returns a pool issuing up to width ops per cycle, with width
// underlying units for unpipelined reservations.
func NewFUPool(width int) *FUPool {
	return &FUPool{Width: width, busyUntil: make([]uint64, width)}
}

// TryIssue attempts to issue at cycle c an op that occupies its unit for
// occupancy cycles (1 for pipelined ops). It returns false when the
// per-cycle width is exhausted or no unit is free.
func (p *FUPool) TryIssue(c uint64, occupancy int) bool {
	if p.Width == 0 {
		return false
	}
	if p.usedAt != c {
		p.usedAt, p.used = c, 0
	}
	if p.used >= p.Width {
		return false
	}
	for i := range p.busyUntil {
		if p.busyUntil[i] <= c {
			if occupancy > 1 {
				p.busyUntil[i] = c + uint64(occupancy)
			}
			p.used++
			return true
		}
	}
	return false
}

// ---- branch prediction ----

// Predictor is a table of 2-bit saturating counters keyed by static site,
// standing in for EV8's (far larger) predictor. On the loop-closing
// branches the kernels emit, it converges to predicting taken and
// mispredicts once per loop exit — the behaviour that matters for the
// vector/scalar comparison.
type Predictor struct {
	counters map[uint32]uint8
}

// NewPredictor returns an empty predictor (counters start weakly taken,
// matching the compiler's backward-taken hint).
func NewPredictor() *Predictor {
	return &Predictor{counters: make(map[uint32]uint8)}
}

// Predict returns the predicted direction and updates the counter with the
// actual outcome, reporting whether the prediction was wrong.
func (p *Predictor) Predict(site uint32, taken bool) (mispredict bool) {
	ctr, ok := p.counters[site]
	if !ok {
		ctr = 2 // weakly taken
	}
	pred := ctr >= 2
	if taken && ctr < 3 {
		ctr++
	} else if !taken && ctr > 0 {
		ctr--
	}
	p.counters[site] = ctr
	return pred != taken
}
