package core

import (
	"math/rand"
	"testing"

	"repro/internal/pipe"
)

// collidingKeys returns n line addresses that hash to the same bucket of t.
func collidingKeys[V any](t *fixedTable[V], n int) []uint64 {
	byBucket := map[int][]uint64{}
	for line := uint64(64); ; line += 64 {
		b := t.bucket(line)
		byBucket[b] = append(byBucket[b], line)
		if len(byBucket[b]) == n {
			return byBucket[b]
		}
	}
}

// TestMSHRFileMatchesMapModel runs the MSHR file (a fixedTable of waiter
// lists) against the map the core used to keep: seeded misses to a small
// line set (so chains collide), merges, fills in random order, MSHR-full
// refusals, and entry reuse. Fills must hand back the waiters in arrival
// order.
func TestMSHRFileMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		f := newFixedTable[[]*pipe.UOp](capacity)
		model := map[uint64][]uint64{}
		var seq uint64
		for step := 0; step < 2000; step++ {
			line := uint64(rng.Intn(4*capacity)) * 64
			if rng.Intn(3) != 0 {
				// A load misses on line.
				seq++
				u := &pipe.UOp{Seq: seq}
				e := f.find(line)
				if _, ok := model[line]; ok != (e != nil) {
					t.Fatalf("seed %d step %d: find(%#x) = %v, model has it: %v", seed, step, line, e != nil, ok)
				}
				switch {
				case e != nil:
					e.val = append(e.val, u)
					model[line] = append(model[line], seq)
				case len(model) >= capacity:
					if !f.Full() {
						t.Fatalf("seed %d step %d: model full at %d, table not", seed, step, capacity)
					}
				default:
					if f.Full() {
						t.Fatalf("seed %d step %d: table full at %d entries, model has %d", seed, step, f.Len(), len(model))
					}
					e = f.insert(line)
					if len(e.val) != 0 {
						t.Fatalf("seed %d step %d: reused entry still holds %d waiters", seed, step, len(e.val))
					}
					e.val = append(e.val, u)
					model[line] = []uint64{seq}
				}
			} else if e := f.find(line); e != nil {
				// The line's fill returns.
				want := model[line]
				delete(model, line)
				if len(e.val) != len(want) {
					t.Fatalf("seed %d step %d: fill of %#x wakes %d loads, want %d", seed, step, line, len(e.val), len(want))
				}
				for i, u := range e.val {
					if u.Seq != want[i] {
						t.Fatalf("seed %d step %d: waiter %d is seq %d, want %d", seed, step, i, u.Seq, want[i])
					}
				}
				f.remove(e)
				clear(e.val)
				e.val = e.val[:0]
			}
			if f.Len() != len(model) {
				t.Fatalf("seed %d step %d: %d entries, model has %d", seed, step, f.Len(), len(model))
			}
		}
	}
}

// TestStoreTableMatchesMapModel runs a thread's store table against the
// quadword -> youngest-store map it replaces: stores rename (the younger
// one takes the quadword over), retire oldest-first (unmapping only
// themselves), and loads look up their quadword — with at most the ROB
// share of stores in flight, the table's bound.
func TestStoreTableMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		robShare := 1 + rng.Intn(32)
		st := newFixedTable[*pipe.UOp](robShare)
		model := map[uint64]*pipe.UOp{}
		var inflight []*pipe.UOp // oldest first
		var seq uint64
		for step := 0; step < 3000; step++ {
			addr := uint64(rng.Intn(2*robShare)) * 8
			switch {
			case rng.Intn(2) == 0 && len(inflight) < robShare:
				seq++
				u := &pipe.UOp{Seq: seq}
				u.Eff.Addrs = []uint64{addr}
				inflight = append(inflight, u)
				model[addr] = u
				e := st.find(addr)
				if e == nil {
					e = st.insert(addr)
				}
				e.val = u
			case len(inflight) > 0 && rng.Intn(2) == 0:
				u := inflight[0]
				inflight = inflight[1:]
				a := u.Eff.Addrs[0]
				if model[a] == u {
					delete(model, a)
				}
				if e := st.find(a); e != nil && e.val == u {
					e.val = nil
					st.remove(e)
				}
			default:
				var got *pipe.UOp
				if e := st.find(addr); e != nil {
					got = e.val
				}
				if got != model[addr] {
					t.Fatalf("seed %d step %d: lookup %#x = %v, model %v", seed, step, addr, got, model[addr])
				}
			}
			if st.Len() != len(model) {
				t.Fatalf("seed %d step %d: %d entries, model has %d", seed, step, st.Len(), len(model))
			}
		}
	}
}

// TestFixedTableChainsFullAndReuse pins the three edges a random walk may
// hit rarely: removing the middle of a hash chain keeps both neighbours
// findable, a full table refuses (and panics on) one more insert, and a
// freed entry is the next one handed out, waiter capacity intact.
func TestFixedTableChainsFullAndReuse(t *testing.T) {
	f := newFixedTable[[]*pipe.UOp](8)
	keys := collidingKeys(&f, 3)
	var ents [3]*mshrEntry
	for i, k := range keys {
		ents[i] = f.insert(k)
		ents[i].val = append(ents[i].val, &pipe.UOp{Seq: uint64(i + 1)})
	}
	// Chains grow at the head, so keys[1] sits in the middle.
	f.remove(ents[1])
	if f.find(keys[1]) != nil {
		t.Fatal("removed key still found")
	}
	if f.find(keys[0]) != ents[0] || f.find(keys[2]) != ents[2] {
		t.Fatal("removing the middle of a chain lost a neighbour")
	}
	capBefore := cap(ents[1].val)
	ents[1].val = ents[1].val[:0]
	if e := f.insert(keys[1] + 64*1024); e != ents[1] || cap(e.val) != capBefore {
		t.Fatalf("freed entry not reused first with its waiter capacity (got %p, want %p)", e, ents[1])
	}
	for i := 0; !f.Full(); i++ {
		f.insert(uint64(1<<30) + uint64(i)*64)
	}
	if f.Len() != 8 {
		t.Fatalf("full table holds %d entries, want 8", f.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("insert into a full table did not panic")
		}
	}()
	f.insert(1 << 40)
}
