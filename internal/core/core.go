// Package core is the timing model of the EV8-class scalar core: an 8-wide
// out-of-order machine with the issue limits of Table 3 (peak 8 int / 4 FP
// per cycle, 2 loads + 2 stores), a write-back L1 data cache, a store queue
// draining through a write buffer, up to 64 outstanding misses, and the
// narrow Vbox interface of §3.3 — a 3-instruction dispatch bus, two scalar
// operand buses, cooperative retirement, and the DrainM barrier.
//
// The model is trace-driven (values were computed functionally at trace
// time) and dataflow-scheduled: an instruction issues when its producers
// have completed and a functional unit of its class is free. Wrong-path
// instructions are not simulated; branch mispredictions charge the
// fetch-redirect penalty, which is the first-order effect for these codes.
package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/l2"
	"repro/internal/metrics"
	"repro/internal/pipe"
	"repro/internal/sched"
	"repro/internal/vasm"
)

// Config sets the core's widths and structure sizes.
type Config struct {
	FetchWidth  int
	RetireWidth int
	ROBSize     int

	IntWidth   int // integer issues per cycle
	FPWidth    int // floating-point issues per cycle
	LoadWidth  int // loads per cycle
	StoreWidth int // stores per cycle

	MispredictPenalty int

	L1Bytes int
	L1Assoc int
	L1Line  int
	L1Lat   int // load-to-use on an L1 hit

	MSHRs           int // outstanding scalar misses ("at most 64 misses before stalling")
	WriteBuffer     int // write-buffer entries (lines)
	StoreForwardLat int

	DrainPenalty int // replay-trap cost after a DrainM completes

	VBusWidth int // vector instructions dispatched to the Vbox per cycle

	// Faults, when non-nil, is the chip's deterministic fault injector
	// (sim.New installs it); it can freeze the issue stage for a cycle.
	Faults *faults.Injector
}

// VectorUnit is the Vbox as the core sees it across the narrow interface.
type VectorUnit interface {
	// Dispatch hands a renamed vector instruction to the Vbox; false means
	// the Vbox queue is full this cycle.
	Dispatch(cy uint64, u *pipe.UOp) bool
	// CanDispatch reports whether Dispatch would currently accept u, without
	// side effects. The fast-forward lookahead needs this to distinguish real
	// Vbox backpressure (queue full, registers exhausted — cleared only by
	// Vbox events) from the core's own per-cycle V-bus width limit, which
	// clears on the very next cycle.
	CanDispatch(u *pipe.UOp) bool
	// MarkReady tells the Vbox the op's last operand arrived at cycle cy.
	MarkReady(cy uint64, u *pipe.UOp)
	// Tick advances the Vbox one cycle.
	Tick(cy uint64)
	// Busy reports in-flight Vbox work.
	Busy() bool
}

// threadState is the per-hardware-thread front-end and retirement state.
// The core is SMT-capable (§3.3: supporting the SMT paradigm was a design
// constraint the Vbox had to meet); the paper's evaluation runs one thread.
type threadState struct {
	id     uint8
	trace  *vasm.Trace
	halted bool

	rob    sched.FIFO[*pipe.UOp] // per-thread reorder buffer
	rename [isa.NumFlatRegs]*pipe.UOp

	// Frontend stall state.
	fetchStallUntil uint64
	pendingRedirect *pipe.UOp // mispredicted branch awaiting resolution
	drainOp         *pipe.UOp // DrainM awaiting write-buffer purge
	nextFetch       *pipe.UOp // staged instruction that could not dispatch

	// Store queue entries awaiting disambiguation checks: quadword address
	// -> the youngest in-flight store writing it. Every mapped store is in
	// this thread's ROB, so the table is sized to the thread's ROB share.
	stores fixedTable[*pipe.UOp]

	// addrOffset tags this thread's addresses in the shared memory
	// hierarchy (each SMT thread has its own address space; the timing
	// models must not alias them).
	addrOffset uint64
}

// Core is the scalar core model.
type Core struct {
	cfg Config
	l2  *l2.L2
	vu  VectorUnit // nil for pure-EV8 configurations

	// Registered counter handles (core.* namespace).
	flops, memOps, otherOps metrics.Counter
	scalarIns, vectorIns    metrics.Counter
	vecOps                  metrics.Counter
	l1Hits, l1Misses        metrics.Counter
	branches, mispredicts   metrics.Counter
	drainMs                 metrics.Counter

	threads  []*threadState
	rrFetch  int // round-robin fetch pointer
	rrRetire int

	dispatchSeq uint64 // global age order across threads

	ready   pipe.ReadyQueue
	blocked []*pipe.UOp // ready but structurally stalled this cycle
	wheel   *sched.Wheel
	pred    *pipe.Predictor

	// completeFn is the method value of onComplete, bound once so every
	// completion event schedules without a closure allocation.
	completeFn func(uint64, any)

	intFU, fpFU, ldFU, stFU *pipe.FUPool

	// Write buffer: retired stores draining to the cache hierarchy.
	// wbDoneFn, bound once, retires one in-flight drain.
	writeBuf   sched.FIFO[wbEntry]
	wbInFlight int
	wbDoneFn   func(uint64, any)

	l1 *l1cache
	// mshr is the miss file: L1 line -> loads waiting on its fill (none for
	// a prefetch). fillFn, bound once, is every fill's L2 completion; its
	// argument is the *mshrEntry, so a miss allocates neither a closure nor
	// a waiter slice.
	mshr   fixedTable[[]*pipe.UOp]
	fillFn func(uint64, any)

	uopPool []*pipe.UOp // recycled records (safe: all references cleared at retire)

	// Invariant checking (nil when disabled).
	chk         *check.Checker
	lastRetSeq  uint64 // sequence number of the most recently retired op
	lastRetSite uint32 // static-site id (PC stand-in) of that op
	retCount    uint64 // retirements since checking began (paces inclusion walks)
}

type wbEntry struct {
	addr uint64
	wh64 bool
}

type mshrEntry = tableEntry[[]*pipe.UOp]

// mshrWaiters and uopConsumers are the initial capacities of an MSHR's
// waiter list and of a fresh uop record's consumer list (room for a full
// fetch group). Both lists keep their capacity across reuse; starting them
// at a working size means the records, which take every role in turn, do
// not each have to grow into the widest fan-out a slot-doubling at a time.
const (
	mshrWaiters  = 4
	uopConsumers = 8
)

// New builds a core bound to an L2 and an optional vector unit, registering
// its counters and occupancy gauges under the registry's core namespace.
func New(cfg Config, reg *metrics.Registry, l2c *l2.L2, vu VectorUnit) *Core {
	c := &Core{
		cfg:   cfg,
		l2:    l2c,
		vu:    vu,
		wheel: sched.NewWheel(),
		pred:  pipe.NewPredictor(),
		intFU: pipe.NewFUPool(cfg.IntWidth),
		fpFU:  pipe.NewFUPool(cfg.FPWidth),
		ldFU:  pipe.NewFUPool(cfg.LoadWidth),
		stFU:  pipe.NewFUPool(cfg.StoreWidth),
		l1:    newL1(cfg.L1Bytes, cfg.L1Assoc, cfg.L1Line),
		mshr:  newFixedTable[[]*pipe.UOp](cfg.MSHRs),
	}
	// Every MSHR starts with room for a few waiters, carved from one array,
	// so merges onto a fill do not grow the slices one entry at a time.
	waiters := make([]*pipe.UOp, mshrWaiters*cfg.MSHRs)
	for i := range c.mshr.ents {
		c.mshr.ents[i].val = waiters[i*mshrWaiters : i*mshrWaiters : (i+1)*mshrWaiters]
	}
	c.completeFn = c.onComplete
	c.fillFn = c.fillL1
	c.wbDoneFn = func(uint64, any) { c.wbInFlight-- }
	l2c.OnPBitInvalidate = c.invalidateL1
	m := reg.Scope("core")
	c.flops = m.Counter("flops")
	c.memOps = m.Counter("mem_ops")
	c.otherOps = m.Counter("other_ops")
	c.scalarIns = m.Counter("scalar_ins")
	c.vectorIns = m.Counter("vector_ins")
	c.vecOps = m.Counter("vec_ops")
	c.l1Hits = m.Counter("l1_hits")
	c.l1Misses = m.Counter("l1_misses")
	c.branches = m.Counter("branches")
	c.mispredicts = m.Counter("branch_mispredicts")
	c.drainMs = m.Counter("drain_ms")
	m.Gauge("rob", "Reorder-buffer entries in flight (all threads).",
		func(uint64) int { rob, _, _, _, _ := c.Depths(); return rob })
	m.Gauge("ready", "Uops ready to issue.",
		func(uint64) int { return c.ready.Len() })
	m.Gauge("blocked", "Ready uops structurally stalled this cycle.",
		func(uint64) int { return len(c.blocked) })
	m.Gauge("writebuf", "Retired stores draining to the cache hierarchy.",
		func(uint64) int { return c.writeBuf.Len() })
	m.Gauge("mshr", "Outstanding L1 miss-status registers.",
		func(uint64) int { return c.mshr.Len() })
	return c
}

// Bind attaches a single instruction trace (thread 0) to execute.
func (c *Core) Bind(tr *vasm.Trace) { c.BindSMT([]*vasm.Trace{tr}) }

// BindSMT attaches one trace per hardware thread. Each thread gets a
// private address-space tag so the shared caches do not alias the threads'
// identical virtual layouts.
func (c *Core) BindSMT(trs []*vasm.Trace) {
	c.threads = c.threads[:0]
	for i, tr := range trs {
		c.threads = append(c.threads, &threadState{
			id:         uint8(i),
			trace:      tr,
			stores:     newFixedTable[*pipe.UOp](c.cfg.ROBSize / len(trs)),
			addrOffset: uint64(i) << 44,
		})
	}
}

// SetChecker attaches the invariant checker. The core owns the invariant
// logic (it has the microarchitectural state); the checker owns the verdict
// and the event history.
func (c *Core) SetChecker(chk *check.Checker) { c.chk = chk }

// Depths reports the core's queue occupancy for failure diagnostics.
func (c *Core) Depths() (rob, ready, blocked, writeBuf, mshr int) {
	for _, t := range c.threads {
		rob += t.rob.Len()
	}
	return rob, c.ready.Len(), len(c.blocked), c.writeBuf.Len(), c.mshr.Len()
}

// LastRetired returns the sequence number and static-site id (the PC
// stand-in) of the most recently retired instruction.
func (c *Core) LastRetired() (seq uint64, site uint32) {
	return c.lastRetSeq, c.lastRetSite
}

// Halted reports whether every thread's HALT marker has retired.
func (c *Core) Halted() bool {
	for _, t := range c.threads {
		if !t.halted {
			return false
		}
	}
	return len(c.threads) > 0
}

// Busy reports whether instructions are still in flight.
func (c *Core) Busy() bool {
	for _, t := range c.threads {
		if t.rob.Len() > 0 {
			return true
		}
	}
	return c.writeBuf.Len() > 0 || c.wbInFlight > 0 || c.wheel.Pending()
}

// invalidateL1 services a P-bit invalidate from the L2; returns true when
// the line was dirty in the L1 (forcing a write-through).
func (c *Core) invalidateL1(line uint64) bool {
	dirty := c.l1.invalidate(line)
	return dirty
}

// Tick advances the core one cycle. Order within the cycle: completions,
// retire, issue, write-buffer drain, fetch/rename/dispatch.
func (c *Core) Tick(cy uint64) {
	c.wheel.Advance(cy)
	c.retire(cy)
	c.issue(cy)
	c.drainWriteBuffer(cy)
	c.fetch(cy)
}

// NextWake returns the earliest cycle after now at which Tick can change any
// core state, for the idle-cycle fast-forward. It must be conservative in
// exactly one direction: returning a cycle EARLIER than the next state change
// merely costs a wasted tick, while a later one would skip work. Whenever the
// core can act on the very next cycle it returns now+1; when every in-flight
// instruction is parked on a completion event it returns the next event (or
// time-based unstall) cycle; ^uint64(0) means the core is fully drained.
func (c *Core) NextWake(now uint64) uint64 {
	// The write buffer drains one entry per cycle.
	if c.writeBuf.Len() > 0 {
		return now + 1
	}
	// A completed ROB head retires next cycle.
	for _, t := range c.threads {
		if t.rob.Len() > 0 && t.rob.Front().State == pipe.StateDone {
			return now + 1
		}
	}
	// Ready ops migrate toward issue while the blocked list has room.
	if c.ready.Len() > 0 && len(c.blocked) < 64 {
		return now + 1
	}
	// Structurally blocked ops: a load parked on a full MSHR file wakes only
	// when a fill event frees an entry, but anything else (per-cycle FU width,
	// an L1 hit, store forwarding, an outstanding fill to attach to) can
	// proceed on the next cycle. Loads are retried oldest-first, and a stuck
	// load still consumes load-issue width on every retry, so younger blocked
	// loads behind a full width's worth of stuck ones are frozen too.
	loadWidth := c.cfg.LoadWidth
	for _, u := range c.blocked {
		info := u.Inst.Info()
		if !info.IsLoad {
			return now + 1 // FP/int/store: per-cycle or busy-until hazards
		}
		if loadWidth <= 0 {
			break // width-starved behind stuck loads: frozen until a fill
		}
		if u.Inst.IsPrefetch() || !c.mshr.Full() {
			return now + 1
		}
		addr := uint64(0)
		if len(u.Eff.Addrs) > 0 {
			addr = u.Eff.Addrs[0]
		}
		line := c.l1line(addr)
		if c.mshr.find(line) != nil {
			return now + 1 // would attach to the outstanding fill
		}
		if c.l1.present(line) {
			return now + 1 // L1 hit once it gets an issue slot
		}
		if st := c.threads[u.Inst.Thread].stores.find(addr); st != nil && st.val.Seq < u.Seq {
			return now + 1 // store-to-load forwarding
		}
		loadWidth-- // MSHR-stuck: burns an issue slot every retry cycle
	}
	wake := c.wheel.Next()
	// Front end: a fetchable thread makes progress every cycle; stalled
	// threads contribute their unstall cycle when it is time-based.
	for _, t := range c.threads {
		if t.halted || t.trace == nil || t.pendingRedirect != nil {
			continue // redirect resolves via the branch's completion event
		}
		if t.drainOp != nil {
			if c.writeBuf.Len() == 0 && c.wbInFlight == 0 {
				return now + 1
			}
			continue // waiting on write drains (L2/Zbox events)
		}
		if t.fetchStallUntil > now {
			if t.fetchStallUntil < wake {
				wake = t.fetchStallUntil
			}
			continue
		}
		if t.rob.Len() >= c.cfg.ROBSize/len(c.threads) {
			continue // ROB full: unblocked by retire, i.e. a completion event
		}
		if t.nextFetch != nil {
			// An op staged in nextFetch usually just saturated the per-cycle
			// V-bus width — dispatch retries successfully next cycle. Only
			// genuine Vbox backpressure (queue full, registers exhausted) is
			// event-driven: slots free while the Vbox issues or completes,
			// which its own NextWake (or a core completion event) covers.
			if c.vu.CanDispatch(t.nextFetch) {
				return now + 1
			}
			continue
		}
		return now + 1
	}
	if wake <= now {
		wake = now + 1
	}
	return wake
}

// ---- retire ----

func (c *Core) retire(cy uint64) {
	retired := 0
	// Per-thread in-order retirement, round-robin across threads up to the
	// shared retire width.
	for range c.threads {
		t := c.threads[c.rrRetire%len(c.threads)]
		c.rrRetire++
		for retired < c.cfg.RetireWidth && t.rob.Len() > 0 {
			u := t.rob.Front()
			if u.State != pipe.StateDone {
				break
			}
			in := &u.Inst
			info := in.Info()
			stop := false
			switch {
			case in.Op == isa.OpHALT:
				t.halted = true
			case in.Op == isa.OpDRAINM:
				// Handled at fetch/execute; retirement is the replay point.
			case info.IsStore && !in.IsVector():
				// Retired stores move to the write buffer "without
				// informing either the L1 or the L2" (§3.4) and drain
				// asynchronously.
				if c.writeBuf.Len() >= c.cfg.WriteBuffer {
					stop = true // write buffer full: stall this thread
					break
				}
				if len(u.Eff.Addrs) > 0 {
					addr := u.Eff.Addrs[0]
					st := t.stores.find(addr)
					if c.chk.Enabled() {
						// Store-queue consistency: the disambiguation table
						// holds the YOUNGEST in-flight store per address. The
						// retiring store is its thread's oldest in-flight op,
						// so an older mapped store means forwarding could
						// have supplied stale data to some load.
						if st != nil && st.val.Seq < u.Seq {
							c.chk.Failf("store-queue", cy,
								"retiring store seq %d finds older store seq %d still mapped at %#x",
								u.Seq, st.val.Seq, addr)
						}
					}
					c.writeBuf.Push(wbEntry{addr: addr, wh64: in.Op == isa.OpWH64})
					if st != nil && st.val == u {
						st.val = nil
						t.stores.remove(st)
					}
				}
			}
			if stop {
				break
			}
			c.countRetired(u)
			c.lastRetSeq, c.lastRetSite = u.Seq, u.Site
			if c.chk.Enabled() {
				c.chk.RetireInOrder(cy, int(t.id), u.Seq)
				c.retCount++
				// L1⊆L2 inclusion is a whole-cache property; walking it per
				// retirement would swamp the run, so sample every 256th.
				if c.retCount&255 == 0 {
					c.checkInclusion(cy)
				}
			}
			u.State = pipe.StateRetired
			t.rob.Pop()
			retired++
			c.recycle(t, u)
		}
	}
}

func (c *Core) countRetired(u *pipe.UOp) {
	in := &u.Inst
	info := in.Info()
	if in.IsVector() {
		c.vectorIns.Inc()
		n := uint64(u.Eff.Active)
		c.vecOps.Add(max(n, 1))
		switch {
		case info.IsLoad || info.IsStore:
			c.memOps.Add(n)
		case info.IsFlop:
			c.flops.Add(n * info.Flops())
		case info.Group == isa.GVC:
			c.otherOps.Inc()
		default:
			c.otherOps.Add(n) // vector integer/logical ops count as "other"
		}
		return
	}
	c.scalarIns.Inc()
	switch {
	case info.IsLoad || info.IsStore:
		c.memOps.Inc()
	case info.IsFlop:
		c.flops.Inc()
	default:
		c.otherOps.Inc()
	}
	if info.IsBranch {
		c.branches.Inc()
	}
}

// recycle returns a retired uop to the pool once nothing can reference it:
// consumers were drained at completion, the store queue entry was removed at
// retire, and any rename-table entry still naming it is cleared here.
func (c *Core) recycle(t *threadState, u *pipe.UOp) {
	if len(u.Consumers) != 0 {
		return // defensive: somebody still waits on it
	}
	for _, r := range destRegs(&u.Inst) {
		if r.Valid() && !r.IsZero() && t.rename[r.Flat()] == u {
			t.rename[r.Flat()] = nil
		}
	}
	cons := u.Consumers[:0]
	*u = pipe.UOp{}
	u.Consumers = cons // the backing array survives recycling
	c.uopPool = append(c.uopPool, u)
}

// checkInclusion validates L1 ⊆ L2: every non-prefetch scalar access marks
// its L2 line with the P-bit, and evicting a P-bit line invalidates the L1
// copy — so a valid L1 line with no L2 backing means that protocol broke.
func (c *Core) checkInclusion(cy uint64) {
	c.l1.walk(func(line uint64) bool {
		if !c.l2.Present(line) {
			c.chk.Failf("l1-inclusion", cy, "L1 holds line %#x but the L2 does not", line)
			return false
		}
		return true
	})
}

// ---- issue ----

func (c *Core) issue(cy uint64) {
	if c.cfg.Faults.StallFUs(cy) {
		return // injected issue-logic stall: every FU pool frozen this cycle
	}
	issued := 0
	budget := c.cfg.FetchWidth // total issue width (8, Table 3 "Core Issue")
	// Structurally blocked ops from earlier cycles are oldest: retry them
	// in place first (no heap churn), compacting the survivors.
	keep := c.blocked[:0]
	for i, u := range c.blocked {
		if issued < budget && c.tryIssue(cy, u) {
			issued++
		} else {
			keep = append(keep, u)
		}
		_ = i
	}
	c.blocked = keep
	scanned := 0
	for c.ready.Len() > 0 && issued < budget && scanned < 4*budget && len(c.blocked) < 64 {
		u := c.ready.Pop()
		scanned++
		if c.tryIssue(cy, u) {
			issued++
		} else {
			c.blocked = append(c.blocked, u)
		}
	}
}

func (c *Core) tryIssue(cy uint64, u *pipe.UOp) bool {
	in := &u.Inst
	info := in.Info()
	switch {
	case info.IsLoad:
		return c.issueLoad(cy, u)
	case info.IsStore:
		// Stores "execute" when address and data are ready; memory is
		// touched after retirement via the write buffer.
		if !c.stFU.TryIssue(cy, 1) {
			return false
		}
		c.complete(cy+1, u)
		return true
	case info.FU == isa.FUFPAdd || info.FU == isa.FUFPMul || info.FU == isa.FUFPDiv:
		occ := 1
		if info.Unpipelined {
			occ = info.Latency
		}
		if !c.fpFU.TryIssue(cy, occ) {
			return false
		}
		c.complete(cy+uint64(info.Latency), u)
		return true
	default:
		// Integer ALU/multiplier, branches, HALT, DRAINM-as-nop.
		occ := 1
		if info.Unpipelined {
			occ = info.Latency
		}
		if !c.intFU.TryIssue(cy, occ) {
			return false
		}
		c.complete(cy+uint64(info.Latency), u)
		if info.IsBranch {
			t := c.threads[u.Inst.Thread]
			if t.pendingRedirect == u {
				// Mispredicted branch resolves: redirect this thread's
				// front end.
				t.pendingRedirect = nil
				t.fetchStallUntil = cy + uint64(info.Latency) + uint64(c.cfg.MispredictPenalty)
			}
		}
		return true
	}
}

func (c *Core) issueLoad(cy uint64, u *pipe.UOp) bool {
	if !c.ldFU.TryIssue(cy, 1) {
		return false
	}
	addr := uint64(0)
	if len(u.Eff.Addrs) > 0 {
		addr = u.Eff.Addrs[0]
	}
	// Store-to-load forwarding: an older in-flight store to the same
	// quadword supplies the data.
	if e := c.threads[u.Inst.Thread].stores.find(addr); e != nil && e.val.Seq < u.Seq {
		st := e.val
		if st.State == pipe.StateDone || st.State == pipe.StateRetired {
			c.complete(cy+uint64(c.cfg.StoreForwardLat), u)
		} else {
			// Wait for the store's data: chain on its completion.
			st.Consumers = append(st.Consumers, u)
			u.Deps++
			u.State = pipe.StateWaiting
		}
		return true
	}
	line := c.l1line(addr)
	if u.Inst.IsPrefetch() {
		// Non-binding prefetch: retires immediately; the line arrives in
		// the background (dropped if the MSHRs are saturated).
		if c.mshr.find(line) == nil && !c.l1.probe(line) && !c.mshr.Full() {
			c.l2.ScalarRead(cy, addr, c.fillFn, c.mshr.insert(line))
		}
		c.complete(cy+1, u)
		return true
	}
	if e := c.mshr.find(line); e != nil {
		// Miss to an already-outstanding line: attach to the MSHR.
		e.val = append(e.val, u)
		u.State = pipe.StateIssued
		return true
	}
	if c.l1.probe(line) {
		c.l1Hits.Inc()
		c.complete(cy+uint64(c.cfg.L1Lat), u)
		return true
	}
	// L1 miss: take an MSHR and fetch the line from the L2. The 64-entry
	// bound is the paper's "at most 64 misses before stalling".
	if c.mshr.Full() {
		return false // stall: retry next cycle
	}
	c.l1Misses.Inc()
	e := c.mshr.insert(line)
	e.val = append(e.val, u)
	c.l2.ScalarRead(cy, addr, c.fillFn, e)
	u.State = pipe.StateIssued
	return true
}

// fillL1 is the L2 completion of the fill of the *mshrEntry a: it installs
// the line into the L1 and completes, in arrival order, the loads that slept
// on the entry. The entry is freed last, with its waiter slice's capacity
// intact.
func (c *Core) fillL1(cy uint64, a any) {
	e := a.(*mshrEntry)
	if victim, dirty := c.l1.fill(e.key, false); dirty {
		c.l2.ScalarWrite(cy, victim, nil, nil)
	}
	for _, u := range e.val {
		c.complete(cy+1, u)
	}
	clear(e.val)
	e.val = e.val[:0]
	c.mshr.remove(e)
}

func (c *Core) l1line(addr uint64) uint64 { return addr &^ uint64(c.cfg.L1Line-1) }

// complete schedules u's completion at cycle cy (immediately if cy is the
// current cycle's event horizon).
func (c *Core) complete(cy uint64, u *pipe.UOp) {
	u.State = pipe.StateIssued
	c.wheel.AtCall(cy, c.completeFn, u)
}

// onComplete is the wheel callback behind complete, stored once in
// completeFn so scheduling a completion allocates nothing.
func (c *Core) onComplete(cy uint64, a any) {
	u := a.(*pipe.UOp)
	u.State = pipe.StateDone
	u.DoneCyc = cy
	c.Wake(cy, u)
}

// Wake propagates a completed producer to its consumers. It is exported for
// the Vbox, which calls it when vector instructions complete (their
// consumers may be scalar — e.g. a VEXTR feeding address arithmetic).
func (c *Core) Wake(cy uint64, u *pipe.UOp) {
	for _, cons := range u.Consumers {
		cons.Deps--
		if cons.Deps == 0 {
			cons.MarkReady(cy)
			if cons.Inst.IsVector() {
				if c.vu != nil {
					c.vu.MarkReady(cy, cons)
				}
			} else {
				c.ready.Push(cons)
			}
		}
	}
	u.Consumers = u.Consumers[:0] // keep capacity for the recycled record
}

// VectorDone is the Vbox's completion callback (the VCU reporting
// instruction identifiers back to the core, §3.3).
func (c *Core) VectorDone(cy uint64, u *pipe.UOp) {
	u.State = pipe.StateDone
	u.DoneCyc = cy
	c.Wake(cy, u)
}

// ---- write buffer ----

func (c *Core) drainWriteBuffer(cy uint64) {
	if c.writeBuf.Len() == 0 {
		return
	}
	e := c.writeBuf.Pop()
	line := c.l1line(e.addr)
	switch {
	case e.wh64:
		c.wbInFlight++
		c.l2.WH64(cy, e.addr, c.wbDoneFn, nil)
	case c.l1.probe(line):
		// Write-back L1: the store lands in the L1 and stays dirty there.
		c.l1.markDirty(line)
	default:
		c.wbInFlight++
		c.l2.ScalarWrite(cy, e.addr, c.wbDoneFn, nil)
	}
}

// ---- fetch / rename / dispatch ----

// fetch picks one runnable thread per cycle (round-robin — the coarse
// policy is enough for the throughput questions SMT mode answers) and
// fetches up to the full width from it.
func (c *Core) fetch(cy uint64) {
	for range c.threads {
		t := c.threads[c.rrFetch%len(c.threads)]
		c.rrFetch++
		if t.trace == nil || t.halted || cy < t.fetchStallUntil || t.pendingRedirect != nil {
			continue
		}
		if t.drainOp != nil {
			// DrainM: wait until the write buffer has fully purged, then
			// pay the replay trap and resume.
			if c.writeBuf.Len() == 0 && c.wbInFlight == 0 {
				c.complete(cy+1, t.drainOp)
				t.drainOp = nil
				t.fetchStallUntil = cy + uint64(c.cfg.DrainPenalty)
			}
			continue
		}
		c.fetchThread(cy, t)
		return
	}
}

func (c *Core) fetchThread(cy uint64, t *threadState) {
	vdispatched := 0
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if t.rob.Len() >= c.cfg.ROBSize/len(c.threads) {
			return
		}
		u := t.nextFetch
		t.nextFetch = nil
		if u == nil {
			d := t.trace.Next()
			if d == nil {
				return
			}
			if n := len(c.uopPool); n > 0 {
				u = c.uopPool[n-1]
				c.uopPool = c.uopPool[:n-1]
			} else {
				u = &pipe.UOp{Consumers: make([]*pipe.UOp, 0, uopConsumers)}
			}
			// One field at a time: a tuple assignment would stage the
			// instruction and its effect through temporaries.
			c.dispatchSeq++
			u.Seq = c.dispatchSeq
			u.Site = d.Site
			u.Inst = d.Inst
			u.Eff = d.Eff
			u.FetchCyc = cy
			u.Inst.Thread = t.id
			if t.addrOffset != 0 && len(u.Eff.Addrs) > 0 {
				// Tag this thread's addresses so the shared memory
				// hierarchy does not alias the threads' address spaces.
				addrs := make([]uint64, len(u.Eff.Addrs))
				for i, a := range u.Eff.Addrs {
					addrs[i] = a + t.addrOffset
				}
				u.Eff.Addrs = addrs
				u.Eff.Base += t.addrOffset
			}
		}
		if u.Inst.IsVector() {
			if c.vu == nil {
				panic(fmt.Sprintf("core: vector instruction %s on a configuration without a Vbox", &u.Inst))
			}
			if vdispatched >= c.cfg.VBusWidth || !c.vu.Dispatch(cy, u) {
				t.nextFetch = u // bus saturated or Vbox queue full
				return
			}
			vdispatched++
		}
		c.renameOp(cy, t, u)
		t.rob.Push(u)

		info := u.Inst.Info()
		switch {
		case info.IsBranch:
			if c.pred.Predict(u.Site^(uint32(t.id)<<28), u.Eff.Taken) {
				c.mispredicts.Inc()
				t.pendingRedirect = u
				c.finishRename(cy, u)
				return // no fetch past a mispredicted branch
			}
		case u.Inst.Op == isa.OpDRAINM:
			c.drainMs.Inc()
			t.drainOp = u
			c.finishRename(cy, u)
			return
		}
		c.finishRename(cy, u)
	}
}

// renameOp links u's dataflow sources against its thread's rename table.
func (c *Core) renameOp(cy uint64, t *threadState, u *pipe.UOp) {
	for _, r := range sourceRegs(&u.Inst) {
		if !r.Valid() || r.IsZero() {
			continue
		}
		if prod := t.rename[r.Flat()]; prod != nil &&
			prod.State != pipe.StateDone && prod.State != pipe.StateRetired {
			prod.Consumers = append(prod.Consumers, u)
			u.Deps++
		}
	}
	for _, r := range destRegs(&u.Inst) {
		if r.Valid() && !r.IsZero() {
			t.rename[r.Flat()] = u
		}
	}
	if info := u.Inst.Info(); info.IsStore && !u.Inst.IsVector() && len(u.Eff.Addrs) > 0 {
		addr := u.Eff.Addrs[0]
		e := t.stores.find(addr)
		if e == nil {
			e = t.stores.insert(addr)
		}
		e.val = u
	}
}

// finishRename queues the op for issue once its dependence count is known.
func (c *Core) finishRename(cy uint64, u *pipe.UOp) {
	if u.Inst.Op == isa.OpDRAINM {
		return // completes via the drain state machine
	}
	if u.Deps == 0 {
		u.MarkReady(cy)
		if u.Inst.IsVector() {
			c.vu.MarkReady(cy, u)
		} else {
			c.ready.Push(u)
		}
	} else {
		u.State = pipe.StateWaiting
	}
}

// sourceRegs lists the architectural registers an instruction reads,
// including the implicit vector control registers (vl for every vector
// operation, vs for strided memory, vm for masked execution — the reason
// the Vbox renames vm, §2). The fixed-size return avoids a per-instruction
// allocation on the hottest path.
func sourceRegs(in *isa.Inst) [6]isa.Reg {
	var out [6]isa.Reg
	n := 0
	info := in.Info()
	add := func(r isa.Reg) {
		if r.Valid() {
			out[n] = r
			n++
		}
	}
	switch info.Group {
	case isa.GScalar:
		add(in.Src1)
		add(in.Src2)
	case isa.GVV, isa.GVS:
		add(in.Src1)
		add(in.Src2)
		add(isa.VL)
		if in.Masked || in.Op == isa.OpVMERG {
			add(isa.VM)
			add(in.Dst) // partial write: old destination merges through
		} else if in.Op == isa.OpVFMAT || in.Op == isa.OpVSFMAT {
			add(in.Dst) // the destination is the accumulator
		}
	case isa.GSM:
		add(in.Src1) // store data
		add(in.Src2) // base
		add(isa.VL)
		add(isa.VS)
		if in.Masked {
			add(isa.VM)
			if info.IsLoad {
				add(in.Dst)
			}
		}
	case isa.GRM:
		add(in.Src1)
		add(in.Src2)
		add(in.Idx)
		add(isa.VL)
		if in.Masked {
			add(isa.VM)
			if info.IsLoad {
				add(in.Dst)
			}
		}
	case isa.GVC:
		add(in.Src1)
		add(in.Src2)
		if in.Op == isa.OpVINS {
			add(in.Dst)
		}
	}
	return out
}

// destRegs lists the architectural registers an instruction writes.
func destRegs(in *isa.Inst) [1]isa.Reg {
	switch in.Op {
	case isa.OpSETVL:
		return [1]isa.Reg{isa.VL}
	case isa.OpSETVS:
		return [1]isa.Reg{isa.VS}
	case isa.OpSETVM, isa.OpVCLRM:
		return [1]isa.Reg{isa.VM}
	}
	if in.Info().IsStore || in.Info().IsBranch {
		return [1]isa.Reg{}
	}
	return [1]isa.Reg{in.Dst}
}

// ResetHalt re-arms the core after a HALT so another trace phase can run on
// the same machine state (used for warmup-then-measure experiments).
func (c *Core) ResetHalt() {
	for _, t := range c.threads {
		t.halted = false
	}
}
