package core

import (
	"fmt"

	"repro/internal/snapshot"
)

// SaveState encodes the core's durable state at a quiescent phase boundary:
// the L1 tag store, the branch predictor, the global dispatch-age counter
// (store-forwarding and the retire-order invariant compare against it, so
// it must survive restore for bit-identity), round-robin pointers, the
// last-retirement markers and the functional-unit reservations. Per-phase
// thread state (ROB, traces) is rebuilt by Bind and never serialized; the
// MSHR and write buffer must have drained.
func (c *Core) SaveState(w *snapshot.Writer, now uint64) error {
	if c.Busy() {
		return fmt.Errorf("core: uops or writebacks in flight; snapshots require a quiescent chip")
	}
	if c.mshr.Len() > 0 || c.ready.Len() > 0 || len(c.blocked) > 0 {
		return fmt.Errorf("core: MSHR or issue queues not empty; snapshots require a quiescent chip")
	}
	w.Tag("core")
	w.U64(c.dispatchSeq)
	w.Int(c.rrFetch)
	w.Int(c.rrRetire)
	w.U64(c.lastRetSeq)
	w.U32(c.lastRetSite)
	c.l1.saveState(w)
	c.pred.SaveState(w)
	c.intFU.SaveState(w, now)
	c.fpFU.SaveState(w, now)
	c.ldFU.SaveState(w, now)
	c.stFU.SaveState(w, now)
	return c.wheel.SaveState(w, now)
}

// LoadState restores the core state saved by SaveState onto a freshly
// constructed core of the same configuration.
func (c *Core) LoadState(r *snapshot.Reader, now uint64) error {
	r.Tag("core")
	c.dispatchSeq = r.U64()
	c.rrFetch = r.Int()
	c.rrRetire = r.Int()
	c.lastRetSeq = r.U64()
	c.lastRetSite = r.U32()
	if err := c.l1.loadState(r); err != nil {
		return err
	}
	if err := c.pred.LoadState(r); err != nil {
		return err
	}
	for _, p := range [...]interface {
		LoadState(*snapshot.Reader, uint64) error
	}{c.intFU, c.fpFU, c.ldFU, c.stFU} {
		if err := p.LoadState(r, now); err != nil {
			return err
		}
	}
	return c.wheel.LoadState(r, now)
}

// saveState encodes the L1 tag store plus its LRU clock.
func (c *l1cache) saveState(w *snapshot.Writer) {
	w.Tag("l1")
	w.U64(c.clock)
	w.U64(uint64(len(c.sets)))
	assoc := 0
	if len(c.sets) > 0 {
		assoc = len(c.sets[0])
	}
	w.Int(assoc)
	for _, set := range c.sets {
		for i := range set {
			wy := &set[i]
			w.U64(wy.tag)
			w.Bool(wy.valid)
			w.Bool(wy.dirty)
			w.U64(wy.lru)
		}
	}
}

// loadState restores the L1 tag store; geometry must match the chip's.
func (c *l1cache) loadState(r *snapshot.Reader) error {
	r.Tag("l1")
	c.clock = r.U64()
	nsets := r.Len(18)
	assoc := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	wantAssoc := 0
	if len(c.sets) > 0 {
		wantAssoc = len(c.sets[0])
	}
	if nsets != len(c.sets) || assoc != wantAssoc {
		return fmt.Errorf("%w: L1 geometry %d sets/assoc %d, chip has %d/%d", snapshot.ErrCorrupt, nsets, assoc, len(c.sets), wantAssoc)
	}
	for _, set := range c.sets {
		for i := range set {
			wy := &set[i]
			wy.tag = r.U64()
			wy.valid = r.Bool()
			wy.dirty = r.Bool()
			wy.lru = r.U64()
		}
	}
	return r.Err()
}
