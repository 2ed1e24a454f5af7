package main

import (
	"reflect"
	"testing"
)

func TestGenMixSameSeedSameList(t *testing.T) {
	a, b := genMix(serveMix, 7), genMix(serveMix, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different request lists")
	}
}

func TestGenMixDifferentSeedDifferentList(t *testing.T) {
	if reflect.DeepEqual(genMix(serveMix, 7), genMix(serveMix, 8)) {
		t.Fatal("seeds 7 and 8 produced the same request list")
	}
}

// TestGenMixShape checks the list against the reporting rule: p90 of the
// cold and of the hit latencies each needs at least ten samples beyond it,
// so each class needs at least 100 requests in a single round.
func TestGenMixShape(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		list := genMix(serveMix, seed)
		firstAt := map[string]int{}
		fresh, repeats := 0, 0
		for i, r := range list {
			if r.PhysVRegs < serveMix.vregLo || r.PhysVRegs > serveMix.vregHi {
				t.Fatalf("seed %d: request %d phys_vregs %d outside [%d, %d]", seed, i, r.PhysVRegs, serveMix.vregLo, serveMix.vregHi)
			}
			at, seen := firstAt[r.key()]
			if r.Fresh {
				if seen {
					t.Fatalf("seed %d: request %d marked fresh but %s first appeared at %d", seed, i, r.key(), at)
				}
				firstAt[r.key()] = i
				fresh++
				continue
			}
			if !seen {
				t.Fatalf("seed %d: request %d repeats %s before its fresh request", seed, i, r.key())
			}
			if i-at < serveMix.minLag {
				t.Fatalf("seed %d: request %d repeats %s only %d positions after it", seed, i, r.key(), i-at)
			}
			repeats++
		}
		if want := len(serveMix.benches) * serveMix.freshPerBench; fresh != want {
			t.Errorf("seed %d: %d fresh requests, want %d", seed, fresh, want)
		}
		if repeats != serveMix.repeats || repeats < 1500 {
			t.Errorf("seed %d: %d repeats, want %d (at least 1500)", seed, repeats, serveMix.repeats)
		}
		if fresh < 100 || repeats < 100 {
			t.Errorf("seed %d: %d cold and %d hit requests; p90 needs 100 of each for ten samples beyond it", seed, fresh, repeats)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	if v, ok := percentile(vs, 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v (reportable %v), want 90 reportable", v, ok)
	}
	if _, ok := percentile(vs[:99], 0.9); ok {
		t.Error("p90 of 99 samples has only 9 beyond it but was reportable")
	}
}

// TestBucketOf checks the charging rule of the CPU-profile fold.
func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2", "repro/internal/l2.(*L2).lookupSlice", "repro/internal/sim.(*Chip).runWheel"}, "l2"},
		{[]string{"runtime.mallocgc", "repro/internal/workloads.streamsKernel.func1", "repro/internal/vasm.NewTrace.func1"}, "producer"},
		{[]string{"repro/internal/workloads.checkVec", "main.decompose"}, "workloads"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"repro/internal/creorder.(*Box).Tick"}, "vbox"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
