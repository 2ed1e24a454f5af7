package l2

import (
	"math/rand"
	"testing"

	"repro/internal/creorder"
)

// TestRandomTrafficCompletes hammers the cache with a random mix of scalar
// reads/writes/prefetches/WH64s and vector slices (pump, reordered and
// CR-style) and asserts the liveness invariant: every request with a
// completion callback eventually completes, and the model reaches
// quiescence. This is the guard against lost wakeups in the MAF
// sleep/retry/panic machinery.
func TestRandomTrafficCompletes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, z, st := testSetup()
		expected, completed := 0, 0
		done := func(uint64, any) { completed++ }
		sliceDone := func(uint64, any) { completed++ }

		cy := uint64(0)
		for burst := 0; burst < 40; burst++ {
			n := 1 + rng.Intn(6)
			for i := 0; i < n; i++ {
				addr := uint64(rng.Intn(1<<22)) &^ 7
				switch rng.Intn(6) {
				case 0:
					expected++
					c.ScalarRead(cy, addr, done, nil)
				case 1:
					expected++
					c.ScalarWrite(cy, addr, done, nil)
				case 2:
					c.ScalarPrefetch(cy, addr)
				case 3:
					expected++
					c.WH64(cy, addr, done, nil)
				default:
					// A random (possibly conflicting-bank) slice.
					var sl creorder.Slice
					var banks [16]bool
					var lanes [16]bool
					for e := 0; e < 1+rng.Intn(16); e++ {
						a := uint64(rng.Intn(1<<22)) &^ 7
						b, l := creorder.BankOf(a), e
						if banks[b] || lanes[l] {
							continue
						}
						banks[b], lanes[l] = true, true
						sl.Elems = append(sl.Elems, creorder.Elem{Index: e, Addr: a})
					}
					if len(sl.Elems) == 0 {
						continue
					}
					sl.QWords = len(sl.Elems)
					op := &SliceOp{Slice: sl, Write: rng.Intn(2) == 0, Done: sliceDone}
					if c.SubmitSlice(op) {
						expected++
					}
				}
			}
			// Advance a random number of cycles between bursts.
			for k := 0; k < 1+rng.Intn(50); k++ {
				cy++
				z.Tick(cy)
				c.Tick(cy)
			}
		}
		// Drain to quiescence.
		for i := 0; i < 500_000 && (c.Busy() || z.Busy()); i++ {
			cy++
			z.Tick(cy)
			c.Tick(cy)
		}
		if c.Busy() || z.Busy() {
			t.Fatalf("seed %d: machine never quiesced (completed %d/%d)", seed, completed, expected)
		}
		if completed != expected {
			t.Fatalf("seed %d: %d of %d requests completed", seed, completed, expected)
		}
		_ = st
	}
}

// TestResidencyAfterFill asserts the basic cache property under random
// traffic: immediately after a read completes, a repeat read of the same
// line is a hit (no pathological thrash in the install path).
func TestResidencyAfterFill(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c, z, st := testSetup()
	cy := uint64(0)
	for round := 0; round < 50; round++ {
		addr := uint64(rng.Intn(1<<21)) &^ 63
		fired := false
		c.ScalarRead(cy, addr, func(uint64, any) { fired = true }, nil)
		for i := 0; i < 100_000 && !fired; i++ {
			cy++
			z.Tick(cy)
			c.Tick(cy)
		}
		if !fired {
			t.Fatalf("round %d: read never completed", round)
		}
		hitsBefore := st.L2Hits
		fired = false
		c.ScalarRead(cy, addr, func(uint64, any) { fired = true }, nil)
		for i := 0; i < 1000 && !fired; i++ {
			cy++
			z.Tick(cy)
			c.Tick(cy)
		}
		if st.L2Hits != hitsBefore+1 {
			t.Fatalf("round %d: repeat read of %#x missed", round, addr)
		}
	}
}
