package main

import (
	"fmt"
	"math/rand"
)

// mixRequest is one job of the serve-mix request list: a test-scale cell
// on T made unique by its phys_vregs knob value.
type mixRequest struct {
	Bench     string
	PhysVRegs int
	// Fresh marks the first request for its confhash in the list; every
	// other request repeats an earlier one.
	Fresh bool
}

func (r mixRequest) key() string { return fmt.Sprintf("%s/pv%d", r.Bench, r.PhysVRegs) }

// mixSpec shapes a serve-mix request list.
type mixSpec struct {
	benches       []string // one fresh cell per phys_vregs value, per bench
	freshPerBench int
	repeats       int
	// minLag is how many list positions a repeat trails the fresh request
	// it repeats, so that in a closed loop the result is almost always
	// stored by then and the repeat reads it instead of joining the run.
	minLag         int
	vregLo, vregHi int // phys_vregs range the fresh values are drawn from
}

// serveMix is the request mix of the serve-mix workload. rndcopy is the
// one kernel with a warm-up phase, so its phys_vregs variants share one
// warm-up snapshot and exercise snapshot restore.
var serveMix = mixSpec{
	benches:       []string{"streams_copy", "streams_triadd", "rndcopy", "dgemm", "sparsemxv", "lu"},
	freshPerBench: 25,
	repeats:       1500,
	minLag:        40,
	vregLo:        64,
	vregHi:        512,
}

// genMix builds the request list for seed: every fresh cell once, spread
// through the list, and the repeats drawn uniformly from the fresh cells
// at least minLag positions back. The same seed gives the same list.
func genMix(spec mixSpec, seed int64) []mixRequest {
	rng := rand.New(rand.NewSource(seed))
	// Every seed draws from the same phys_vregs values, evenly spaced over
	// the range, so every list simulates the same work; the seed decides
	// which bench gets which value and the order.
	var fresh []mixRequest
	step := (spec.vregHi - spec.vregLo) / spec.freshPerBench
	for _, b := range spec.benches {
		for _, k := range rng.Perm(spec.freshPerBench) {
			fresh = append(fresh, mixRequest{Bench: b, PhysVRegs: spec.vregLo + k*step, Fresh: true})
		}
	}
	rng.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })

	total := len(fresh) + spec.repeats
	list := make([]mixRequest, 0, total)
	var introduced []int // list positions of fresh requests
	for len(list) < total {
		pos := len(list)
		eligible := 0 // fresh requests at least minLag back
		for eligible < len(introduced) && introduced[eligible] <= pos-spec.minLag {
			eligible++
		}
		remFresh := len(fresh) - len(introduced)
		remRepeats := total - pos - remFresh
		takeFresh := remFresh > 0 &&
			(eligible == 0 || remRepeats == 0 || rng.Intn(remFresh+remRepeats) < remFresh)
		if takeFresh {
			introduced = append(introduced, pos)
			list = append(list, fresh[len(introduced)-1])
			continue
		}
		r := list[introduced[rng.Intn(eligible)]]
		r.Fresh = false
		list = append(list, r)
	}
	return list
}
