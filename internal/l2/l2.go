// Package l2 models Tarantula's second-level cache (§3.4): sixteen banks
// read in parallel for vector slices, the PUMP structures that double
// stride-1 bandwidth, slice-atomic miss handling in the MAF (sleep, fill,
// wakeup, retry, panic mode), P-bit scalar↔vector coherency, and the shared
// path for scalar (EV8-side) refills and write-buffer drains.
//
// Timing is slice-granular: a conflict-free slice cycles all sixteen banks
// at once, so the model charges bank/bus occupancy per slice rather than per
// element — the granularity at which the paper's contention effects occur.
package l2

import (
	"math/bits"

	"repro/internal/creorder"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/zbox"
)

// Config sets the cache geometry and timing.
type Config struct {
	Bytes     int // total capacity
	Assoc     int
	LineBytes int // 64 throughout the paper

	ScalarLat  int // load-to-use for scalar requests (Table 3)
	VecLatPump int // load-to-use for vector stride-1 (Table 3)
	VecLatOdd  int // load-to-use for vector non-unit strides (Table 3)

	MAFSize         int // outstanding miss entries
	ReplayThreshold int // replays before panic mode (§3.4)
	RetryDelay      int // cycles between wakeup and replay

	SliceQueue int // vector input queue depth per direction

	// PBitPenalty is the extra latency a vector access pays when it must
	// send invalidates to the L1 for a P-bit line.
	PBitPenalty int

	// Faults, when non-nil, adds deterministic jitter to response latencies
	// (sim.New installs the chip's injector).
	Faults *faults.Injector
}

// SliceOp is a vector slice request walking the memory pipeline. The
// submitter owns it: the cache holds a pointer from SubmitSlice until it
// calls Done (or, for a slice with no Done, until the slice hits), and the
// submitter must not reuse it before then.
type SliceOp struct {
	Slice creorder.Slice
	Write bool
	// Done, when non-nil, is called as Done(cycle, Arg) when the slice's
	// data transfer completes — the zbox.Request completion contract, so
	// the submitter can bind one func for all its slices.
	Done func(cycle uint64, arg any)
	Arg  any

	replays int
	waiting int // outstanding line fills
	panic_  bool
}

type way struct {
	tag    uint64 // line address
	valid  bool
	dirty  bool
	pbit   bool
	locked bool // pinned by a panicked slice
	lru    uint64
}

// mafEntry is one miss-address-file entry: an in-flight line fetch and the
// requests sleeping on it. Entries live in a fixed array of MAFSize (the
// hardware's 64-entry MAF) and are recycled, waiter slices included, so a
// miss allocates nothing once the slices have grown to their working size.
type mafEntry struct {
	line     uint64
	sleepers []*SliceOp
	scalar   []scalarWaiter // scalar waiters (L1 refills and write drains)
	next     int32          // next entry in the same hash bucket, or -1
}

// scalarWaiter is a scalar miss waiting on a fill: when the line arrives it
// is marked dirty (write) and P-bit (the L1 now holds it), and its
// completion, if any, fires as done(cycle+lat, arg).
type scalarWaiter struct {
	write bool
	lat   uint64
	done  func(cycle uint64, arg any)
	arg   any
}

// L2 is the cache model.
type L2 struct {
	cfg Config
	z   *zbox.Zbox

	// The tag store is flattened: set s occupies ways[s*assoc:(s+1)*assoc].
	// tags mirrors the tag of each valid way (invalid ways hold ^0, never a
	// real line address since lines are at least 64-byte aligned) so a probe
	// scans one contiguous cache line of tags instead of chasing per-set
	// slices of 32-byte way structs.
	ways  []way
	tags  []uint64
	mask  uint64
	assoc uint64

	// Registered counter handles (l2.* namespace).
	hits, misses           metrics.Counter
	scalarReqs             metrics.Counter
	vecSlices, pumpSlices  metrics.Counter
	sliceReplays           metrics.Counter
	panicEvents            metrics.Counter
	pbitInvalidates        metrics.Counter
	writebacks             metrics.Counter
	mafPeak, mafFullStalls metrics.Counter

	lruClock uint64

	// OnPBitInvalidate is installed by the core: the L2 calls it when a
	// vector access touches (or an eviction removes) a line the EV8 core
	// has in its L1. It returns true when the L1 copy was dirty and had to
	// be written through first.
	OnPBitInvalidate func(lineAddr uint64) bool

	readQ, writeQ, retryQ sched.FIFO[*SliceOp]
	scalarQ               sched.FIFO[scalarReq]

	// Callbacks bound once at construction, so the hot paths schedule wheel
	// events and Zbox reads with a pointer argument and no closure:
	// retrySliceFn re-queues a *SliceOp after a retry delay, fillArrivedFn
	// completes the fill of a *mafEntry, and scalarRetryFn re-queues a
	// *scalarReq NACKed by a full MAF.
	retrySliceFn, fillArrivedFn, scalarRetryFn func(uint64, any)

	// missScratch backs lookupSlice's per-slice missing-line list, reused
	// across slices (it never escapes the call).
	missScratch []uint64

	// The MAF: a fixed array of entries, a free list of their indices, and
	// a chained hash from line address to the occupied entries (mafHash
	// holds each bucket's first entry, -1 when empty).
	maf      []mafEntry
	mafFree  []int32
	mafHash  []int32
	mafShift uint // 64 - log2(len(mafHash))
	mafUsed  int

	// retryReqs recycles the boxes that carry MAF-NACKed scalar requests
	// through the wheel.
	retryReqs []*scalarReq

	readBusFree, writeBusFree uint64

	wheel *sched.Wheel
}

type scalarReq struct {
	addr  uint64
	write bool
	wh64  bool
	pref  bool
	done  func(cycle uint64, arg any)
	arg   any
}

// New returns an L2 backed by the given memory controller, registering its
// counters and queue-depth gauges under the registry's l2 namespace.
func New(cfg Config, reg *metrics.Registry, z *zbox.Zbox) *L2 {
	nsets := cfg.Bytes / (cfg.LineBytes * cfg.Assoc)
	c := &L2{
		cfg:   cfg,
		z:     z,
		ways:  make([]way, nsets*cfg.Assoc),
		tags:  make([]uint64, nsets*cfg.Assoc),
		mask:  uint64(nsets - 1),
		assoc: uint64(cfg.Assoc),
		maf:   make([]mafEntry, cfg.MAFSize),
		wheel: sched.NewWheel(),
	}
	// Two buckets per entry keeps chains short at full occupancy.
	nb := 1 << bits.Len(uint(2*cfg.MAFSize-1))
	c.mafHash = make([]int32, nb)
	c.mafShift = uint(64 - bits.TrailingZeros(uint(nb)))
	for i := range c.mafHash {
		c.mafHash[i] = -1
	}
	c.mafFree = make([]int32, cfg.MAFSize)
	for i := range c.mafFree {
		// Popped from the back: entry 0 is handed out first.
		c.mafFree[i] = int32(cfg.MAFSize - 1 - i)
	}
	c.retrySliceFn = func(_ uint64, a any) { c.retryQ.Push(a.(*SliceOp)) }
	c.fillArrivedFn = c.fillArrived
	c.scalarRetryFn = func(_ uint64, a any) {
		r := a.(*scalarReq)
		c.scalarQ.Push(*r)
		*r = scalarReq{}
		c.retryReqs = append(c.retryReqs, r)
	}
	for i := range c.tags {
		c.tags[i] = ^uint64(0)
	}
	m := reg.Scope("l2")
	c.hits = m.Counter("hits")
	c.misses = m.Counter("misses")
	c.scalarReqs = m.Counter("scalar_reqs")
	c.vecSlices = m.Counter("vec_slices")
	c.pumpSlices = m.Counter("pump_slices")
	c.sliceReplays = m.Counter("slice_replays")
	c.panicEvents = m.Counter("panic_events")
	c.pbitInvalidates = m.Counter("pbit_invalidates")
	c.writebacks = m.Counter("writebacks")
	c.mafPeak = m.Counter("maf_peak")
	c.mafFullStalls = m.Counter("maf_full_stalls")
	m.Gauge("read_q", "Vector read slices queued at the L2.",
		func(uint64) int { return c.readQ.Len() })
	m.Gauge("write_q", "Vector write slices queued at the L2.",
		func(uint64) int { return c.writeQ.Len() })
	m.Gauge("retry_q", "Woken slices awaiting replay.",
		func(uint64) int { return c.retryQ.Len() })
	m.Gauge("maf", "Occupied miss-address-file entries.",
		func(uint64) int { return c.mafUsed })
	return c
}

func (c *L2) line(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }
func (c *L2) base(line uint64) uint64 { return ((line >> 6) & c.mask) * c.assoc }

// probe returns the way holding line, or nil.
func (c *L2) probe(line uint64) *way {
	base := c.base(line)
	for i, t := range c.tags[base : base+c.assoc] {
		if t == line {
			return &c.ways[base+uint64(i)]
		}
	}
	return nil
}

// Present reports whether line is cached, without touching LRU or P-bit
// state — the invariant checker's L1-inclusion sweep must observe the cache
// without perturbing replacement order.
func (c *L2) Present(line uint64) bool { return c.probe(line) != nil }

func (c *L2) touch(w *way) {
	c.lruClock++
	w.lru = c.lruClock
}

// markDirty transitions a line to dirty, charging the directory-update
// transaction the coherency protocol performs on the Shared→Dirty (or
// Invalid→Dirty, for WH64 allocations) edge.
func (c *L2) markDirty(w *way) {
	if !w.dirty {
		w.dirty = true
		c.z.Request(w.tag, zbox.DirOp, nil, nil)
	}
}

// victim picks the LRU unlocked way in the set of line (by index into the
// flattened tag store), or -1 if every way is pinned by panicked slices.
func (c *L2) victim(line uint64) int {
	base := c.base(line)
	v := -1
	for i := base; i < base+c.assoc; i++ {
		w := &c.ways[i]
		if !w.valid {
			return int(i)
		}
		if w.locked {
			continue
		}
		if v < 0 || w.lru < c.ways[v].lru {
			v = int(i)
		}
	}
	return v
}

// install places line into the cache, evicting as needed. Returns nil if no
// victim is available (all ways locked).
func (c *L2) install(line uint64, dirty bool) *way {
	idx := c.victim(line)
	if idx < 0 {
		return nil
	}
	w := &c.ways[idx]
	if w.valid {
		if w.pbit && c.OnPBitInvalidate != nil {
			// Evicting a P-bit line invalidates the L1 copy (§3.4).
			c.pbitInvalidates.Inc()
			if c.OnPBitInvalidate(w.tag) {
				w.dirty = true // L1 write-through merged into the victim
			}
		}
		if w.dirty {
			c.writebacks.Inc()
			c.z.Request(w.tag, zbox.Write, nil, nil)
		}
	}
	*w = way{tag: line, valid: true, dirty: dirty}
	c.tags[idx] = line
	c.touch(w)
	if dirty {
		// Fresh dirty allocation (WH64): Invalid→Dirty directory edge.
		c.z.Request(line, zbox.DirOp, nil, nil)
	}
	return w
}

// ---- external request API ----

// SubmitSlice offers a vector slice to the cache. It returns false when the
// input queue for that direction is full (the Vbox keeps the slice and
// retries next cycle).
func (c *L2) SubmitSlice(op *SliceOp) bool {
	q := &c.readQ
	if op.Write {
		q = &c.writeQ
	}
	if q.Len() >= c.cfg.SliceQueue {
		return false
	}
	q.Push(op)
	return true
}

// ScalarRead requests the line containing addr on behalf of the EV8 core
// (an L1 refill). The P-bit is set: the core now has the line. done, if
// non-nil, is called as done(cycle, arg) when the line is available to the
// L1 — the SliceOp and zbox.Request completion contract, so the requester
// binds one func and passes its per-request state as arg.
func (c *L2) ScalarRead(cy uint64, addr uint64, done func(cycle uint64, arg any), arg any) {
	c.scalarQ.Push(scalarReq{addr: c.line(addr), done: done, arg: arg})
}

// ScalarPrefetch is a non-binding scalar prefetch: it fills the L2 (and is
// dropped on MAF pressure) but never blocks the requester.
func (c *L2) ScalarPrefetch(cy uint64, addr uint64) {
	c.scalarQ.Push(scalarReq{addr: c.line(addr), pref: true})
}

// ScalarWrite drains one store (or an L1 dirty writeback) into the cache,
// setting the P-bit, per the write-buffer behaviour of §3.4. done, if
// non-nil, is called as done(cycle, arg) when the write is durably in the
// L2 (DrainM waits on it).
func (c *L2) ScalarWrite(cy uint64, addr uint64, done func(cycle uint64, arg any), arg any) {
	c.scalarQ.Push(scalarReq{addr: c.line(addr), write: true, done: done, arg: arg})
}

// WH64 allocates the line dirty without a memory read (the write-hint that
// saves read-for-ownership traffic). The allocation bypasses the L1, so the
// P-bit is not set and later vector stores do not pay invalidates.
// done, if non-nil, is called as done(cycle, arg) once the line is allocated.
func (c *L2) WH64(cy uint64, addr uint64, done func(cycle uint64, arg any), arg any) {
	c.scalarQ.Push(scalarReq{addr: c.line(addr), write: true, wh64: true, done: done, arg: arg})
}

// Busy reports whether the cache still has work in flight.
func (c *L2) Busy() bool {
	return c.readQ.Len()+c.writeQ.Len()+c.scalarQ.Len()+c.retryQ.Len()+c.mafUsed > 0 ||
		c.wheel.Pending()
}

// MAFInUse returns the number of occupied miss entries.
func (c *L2) MAFInUse() int { return c.mafUsed }

// NextWake returns the earliest cycle after now at which Tick can change any
// cache state. Queued slices and scalar requests are serviced every cycle, so
// any backlog pins the wake-up to now+1; otherwise the cache is purely
// event-driven (wheel completions; in-flight fills resolve through the Zbox,
// whose own NextWake covers them). ^uint64(0) means nothing will ever happen
// without new input.
func (c *L2) NextWake(now uint64) uint64 {
	if c.retryQ.Len() > 0 || c.readQ.Len() > 0 || c.writeQ.Len() > 0 || c.scalarQ.Len() > 0 {
		return now + 1
	}
	wake := c.wheel.Next()
	if wake <= now {
		wake = now + 1
	}
	return wake
}

// ---- per-cycle processing ----

// Tick advances the cache one cycle.
func (c *L2) Tick(cy uint64) {
	c.wheel.Advance(cy)

	// Replays have priority over new slices: a woken slice walks the pipe
	// again ahead of fresh traffic (it holds a MAF entry others may need).
	if c.retryQ.Len() > 0 {
		if op := c.retryQ.Front(); c.tryBus(cy, op) {
			c.retryQ.Pop()
			c.sliceReplays.Inc()
			c.lookupSlice(cy, op)
		}
	}

	// Accept at most one new slice per direction per cycle, bus permitting.
	if c.readQ.Len() > 0 {
		if op := c.readQ.Front(); c.tryBus(cy, op) {
			c.readQ.Pop()
			c.lookupSlice(cy, op)
		}
	}
	if c.writeQ.Len() > 0 {
		if op := c.writeQ.Front(); c.tryBus(cy, op) {
			c.writeQ.Pop()
			c.lookupSlice(cy, op)
		}
	}

	// Two scalar requests per cycle (a line read + a line write stream,
	// EV8's 273 GB/s sustainable figure from Table 3).
	for n := 0; n < 2 && c.scalarQ.Len() > 0; n++ {
		c.lookupScalar(cy, c.scalarQ.Pop())
	}
}

// tryBus reserves the data bus for the slice: pump slices stream 32 qw/cycle
// for four cycles; normal slices move their ≤16 quadwords in one.
func (c *L2) tryBus(cy uint64, op *SliceOp) bool {
	occ := uint64(1)
	if op.Slice.Pump {
		occ = 4
	}
	if op.Write {
		if c.writeBusFree > cy {
			return false
		}
		c.writeBusFree = cy + occ
	} else {
		if c.readBusFree > cy {
			return false
		}
		c.readBusFree = cy + occ
	}
	return true
}

func (c *L2) lookupSlice(cy uint64, op *SliceOp) {
	c.vecSlices.Inc()
	if op.Slice.Pump {
		c.pumpSlices.Inc()
	}
	missing := c.missScratch[:0]
	pbitHit := false
	// Consecutive elements of a slice overwhelmingly share a cache line
	// (a pump slice spans two lines, any other slice one per bank), so the
	// associativity scan is memoised per line. Every per-element side effect
	// (LRU touch, P-bit handling, duplicate miss entries) still happens per
	// element, keeping the state byte-identical to the unmemoised walk.
	lastLine := ^uint64(0)
	var lastW *way
	for _, e := range op.Slice.Elems {
		line := c.line(e.Addr)
		var w *way
		if line == lastLine {
			w = lastW
		} else {
			w = c.probe(line)
			lastLine, lastW = line, w
		}
		if w == nil {
			missing = append(missing, line)
			continue
		}
		c.touch(w)
		if w.pbit {
			pbitHit = true
			c.pbitInvalidates.Inc()
			if c.OnPBitInvalidate != nil && c.OnPBitInvalidate(line) {
				w.dirty = true
			}
			w.pbit = false
		}
		if op.Write {
			c.markDirty(w)
		}
	}
	c.missScratch = missing[:0]
	if len(missing) == 0 {
		c.hits.Inc()
		if op.panic_ {
			c.exitPanic(op)
		}
		lat := uint64(c.cfg.VecLatOdd)
		if op.Slice.Pump {
			lat = uint64(c.cfg.VecLatPump)
		}
		if pbitHit {
			lat += uint64(c.cfg.PBitPenalty)
		}
		lat += c.cfg.Faults.L2Latency(cy)
		if op.Done != nil {
			c.wheel.AtCall(cy+lat, op.Done, op.Arg)
		}
		return
	}

	// Miss: the slice sleeps in the MAF with a waiting bit per missing
	// line (§3.4 "Servicing Vector Misses").
	c.misses.Inc()
	op.replays++
	if op.replays > c.cfg.ReplayThreshold && !op.panic_ {
		c.enterPanic(op)
	}
	op.waiting = 0
	for _, line := range missing {
		if c.requestFill(line, op) != nil {
			op.waiting++
		}
	}
	if op.waiting == 0 {
		// Every fill was NACKed (MAF exhausted): retry later.
		c.mafFullStalls.Inc()
		c.wheel.AtCall(cy+uint64(c.cfg.RetryDelay), c.retrySliceFn, op)
	}
}

// mafBucket hashes a line address to its MAF hash bucket (Fibonacci
// hashing, so power-of-two line strides still spread across buckets).
func (c *L2) mafBucket(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> c.mafShift)
}

// findFill returns the MAF entry fetching line, or nil.
func (c *L2) findFill(line uint64) *mafEntry {
	for i := c.mafHash[c.mafBucket(line)]; i >= 0; i = c.maf[i].next {
		if c.maf[i].line == line {
			return &c.maf[i]
		}
	}
	return nil
}

// requestFill attaches op to the in-flight fetch of line, creating it if
// needed, and returns the fill's MAF entry — nil when the MAF has no free
// entry.
func (c *L2) requestFill(line uint64, op *SliceOp) *mafEntry {
	e := c.findFill(line)
	if e == nil {
		if len(c.mafFree) == 0 {
			return nil
		}
		i := c.mafFree[len(c.mafFree)-1]
		c.mafFree = c.mafFree[:len(c.mafFree)-1]
		e = &c.maf[i]
		b := c.mafBucket(line)
		e.line, e.next = line, c.mafHash[b]
		c.mafHash[b] = i
		c.mafUsed++
		c.mafPeak.Peak(uint64(c.mafUsed))
		c.z.Request(line, zbox.Read, c.fillArrivedFn, e)
	}
	if op != nil {
		e.sleepers = append(e.sleepers, op)
	}
	return e
}

// fillArrived installs the line of the *mafEntry a and wakes sleepers whose
// waiting bits all cleared; they move to the retry queue and walk the pipe
// again. Scalar waiters complete in arrival order.
func (c *L2) fillArrived(cy uint64, a any) {
	e := a.(*mafEntry)
	w := c.install(e.line, false)
	if w == nil {
		// Every way pinned by panicked slices: retry the install shortly.
		c.wheel.AtCall(cy+1, c.fillArrivedFn, e)
		return
	}
	// Unhash the entry first (the line is resident now, so no request can
	// merge into it) but return it to the free list only after its waiters
	// ran, so nothing those callbacks do can reuse it mid-walk.
	i := c.unhashFill(e)
	for _, op := range e.sleepers {
		op.waiting--
		if op.waiting == 0 {
			c.wheel.AtCall(cy+uint64(c.cfg.RetryDelay), c.retrySliceFn, op)
		}
	}
	for _, sw := range e.scalar {
		if w := c.probe(e.line); w != nil {
			if sw.write {
				c.markDirty(w)
			}
			w.pbit = true
		}
		if sw.done != nil {
			sw.done(cy+sw.lat, sw.arg)
		}
	}
	clear(e.sleepers)
	clear(e.scalar)
	e.sleepers, e.scalar = e.sleepers[:0], e.scalar[:0]
	c.mafFree = append(c.mafFree, i)
}

// unhashFill removes e from its hash chain and the occupancy count, and
// returns its index in the MAF array.
func (c *L2) unhashFill(e *mafEntry) int32 {
	p := &c.mafHash[c.mafBucket(e.line)]
	for c.maf[*p].line != e.line {
		p = &c.maf[*p].next
	}
	i := *p
	*p = e.next
	c.mafUsed--
	return i
}

// enterPanic pins the slice's lines so competing traffic cannot evict them
// (the MAF "starts NACKing all requests that may prevent forward progress",
// §3.4 — we model the effect: guaranteed completion on the next replay).
func (c *L2) enterPanic(op *SliceOp) {
	op.panic_ = true
	c.panicEvents.Inc()
	for _, e := range op.Slice.Elems {
		if w := c.probe(c.line(e.Addr)); w != nil {
			w.locked = true
		}
	}
}

func (c *L2) exitPanic(op *SliceOp) {
	op.panic_ = false
	for _, e := range op.Slice.Elems {
		if w := c.probe(c.line(e.Addr)); w != nil {
			w.locked = false
		}
	}
}

func (c *L2) lookupScalar(cy uint64, req scalarReq) {
	c.scalarReqs.Inc()
	w := c.probe(req.addr)
	if req.wh64 {
		if w == nil {
			w = c.install(req.addr, true)
		} else {
			c.touch(w)
			c.markDirty(w)
		}
		if req.done != nil {
			c.wheel.AtCall(cy+1, req.done, req.arg)
		}
		return
	}
	if w != nil {
		c.hits.Inc()
		c.touch(w)
		if req.write {
			c.markDirty(w)
			w.pbit = true
		} else if !req.pref {
			w.pbit = true
		}
		if req.done != nil {
			lat := uint64(c.cfg.ScalarLat) + c.cfg.Faults.L2Latency(cy)
			c.wheel.AtCall(cy+lat, req.done, req.arg)
		}
		return
	}
	c.misses.Inc()
	if req.pref {
		// Prefetches are dropped rather than stalled when the MAF is full.
		c.requestFill(req.addr, nil)
		return
	}
	e := c.requestFill(req.addr, nil)
	if e == nil {
		// MAF full: retry the scalar request next cycle.
		c.mafFullStalls.Inc()
		var r *scalarReq
		if n := len(c.retryReqs); n > 0 {
			r = c.retryReqs[n-1]
			c.retryReqs = c.retryReqs[:n-1]
		} else {
			r = new(scalarReq)
		}
		*r = req
		c.wheel.AtCall(cy+1, c.scalarRetryFn, r)
		return
	}
	lat := uint64(c.cfg.ScalarLat) + c.cfg.Faults.L2Latency(cy)
	e.scalar = append(e.scalar, scalarWaiter{write: req.write, lat: lat, done: req.done, arg: req.arg})
}

// Depths reports the cache's queue occupancies for profiling tools.
func (c *L2) Depths() (readQ, writeQ, retryQ, maf int) {
	return c.readQ.Len(), c.writeQ.Len(), c.retryQ.Len(), c.mafUsed
}
