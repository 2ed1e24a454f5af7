package creorder

// Reference implementations of the slice generators, kept as they were
// before the allocation-free rewrite: a map from line address to line for
// pump slices, per-slice Elems appends for the reorder ROM, and per-lane
// slice queues in the CR box. TestGeneratorsMatchReference requires the
// production generators to reproduce them exactly.

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
)

func refPumpSlices(base uint64, active []bool, tag0 int) []Slice {
	type lineInfo struct {
		addr uint64
		qw   int
	}
	var lines []lineInfo
	lineIdx := make(map[uint64]int)
	for i, act := range active {
		if !act {
			continue
		}
		la := (base + uint64(i)*8) &^ (LineBytes - 1)
		j, ok := lineIdx[la]
		if !ok {
			j = len(lines)
			lineIdx[la] = j
			lines = append(lines, lineInfo{addr: la})
		}
		lines[j].qw++
	}
	if len(lines) == 0 {
		return nil
	}
	// Split at 1 KiB block boundaries: a block holds one line per bank, so
	// each pump slice is conflict-free. An aligned 128-element access is
	// one slice; a misaligned base straddles a block boundary and is forced
	// to generate two slices, both with the pump bit set (§3.4 footnote 3).
	var out []Slice
	block := func(a uint64) uint64 { return a >> 10 }
	start := 0
	for start < len(lines) {
		end := start + 1
		for end < len(lines) && end-start < NumBanks && block(lines[end].addr) == block(lines[start].addr) {
			end++
		}
		s := Slice{Tag: tag0 + len(out), Pump: true}
		for j := start; j < end; j++ {
			s.Elems = append(s.Elems, Elem{Index: j, Addr: lines[j].addr})
			s.QWords += lines[j].qw
		}
		out = append(out, s)
		start = end
	}
	return out
}

func refReorderSlices(base uint64, strideBytes int64, active []bool, tag0 int) []Slice {
	var pattern [isa.VLMax]byte
	for i := 0; i < isa.VLMax; i++ {
		pattern[i] = byte(BankOf(base + uint64(int64(i)*strideBytes)))
	}
	key := string(pattern[:])
	var sched [][]int
	if v, ok := scheduleROM.Load(key); ok {
		sched = v.([][]int)
	} else {
		sched = computeSchedule(base, strideBytes)
		scheduleROM.Store(key, sched)
	}
	var out []Slice
	for _, group := range sched {
		s := Slice{Tag: tag0 + len(out)}
		for _, idx := range group {
			if idx < len(active) && active[idx] {
				s.Elems = append(s.Elems, Elem{Index: idx, Addr: base + uint64(int64(idx)*strideBytes)})
			}
		}
		s.QWords = len(s.Elems)
		// Empty groups still exist in the requesting order but produce no
		// L2 traffic; the Vbox timing charges the address-generation cycle
		// regardless, so we emit the (possibly empty) slice.
		out = append(out, s)
	}
	return out
}

func refPack(elems []Elem, tag0 int) ([]Slice, int) {
	var lanes [isa.NumLanes][]Elem
	n := 0
	for _, e := range elems {
		l := LaneOf(e.Index)
		lanes[l] = append(lanes[l], e)
		n++
	}
	var out []Slice
	rounds := 0
	for n > 0 {
		rounds++
		var bankUsed [NumBanks]bool
		s := Slice{Tag: tag0 + len(out)}
		for l := 0; l < isa.NumLanes; l++ {
			if len(lanes[l]) == 0 {
				continue
			}
			head := lanes[l][0]
			b := BankOf(head.Addr)
			if bankUsed[b] {
				continue // loses this tournament, retries next round
			}
			bankUsed[b] = true
			s.Elems = append(s.Elems, head)
			lanes[l] = lanes[l][1:]
			n--
		}
		s.QWords = len(s.Elems)
		out = append(out, s)
	}
	return out, rounds
}

// TestGeneratorsMatchReference is a seeded property test: over random bases,
// strides (pump, reorderable, self-conflicting, negative, sub-quadword),
// vl/masks and gather address sets, every production generator must return
// exactly the slices (tags, elements, quadword counts, pump bit) and round
// counts of its reference.
func TestGeneratorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	strides := []int64{8, 16, 24, 40, 56, 64, 128, 136, 2048, 4096, -8, -24, 0, 4, 12}
	for iter := 0; iter < 3000; iter++ {
		base := uint64(1<<20 + rng.Intn(1<<16)*8)
		if rng.Intn(4) == 0 {
			base += uint64(rng.Intn(8)) // sub-quadword misalignment
		}
		stride := strides[rng.Intn(len(strides))]
		active := randomActive(rng)

		var got, want []Slice
		switch ClassifyStride(stride) {
		case ModePump:
			got, want = pumpSlices(base, active, iter), refPumpSlices(base, active, iter)
		case ModeReorder:
			got, want = reorderSlices(base, stride, active, iter), refReorderSlices(base, stride, active, iter)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: base %#x stride %d: slices\n got %+v\nwant %+v", iter, base, stride, got, want)
		}

		var cr CRBox
		gotS, gotR := cr.PackStrided(base, stride, active, iter)
		wantS, wantR := refPack(stridedElems(base, stride, active), iter)
		if !reflect.DeepEqual(gotS, wantS) || gotR != wantR {
			t.Fatalf("iter %d: PackStrided base %#x stride %d: %d rounds %+v, want %d rounds %+v",
				iter, base, stride, gotR, gotS, wantR, wantS)
		}

		// A gather: random addresses over a random working-set size, in
		// element order or shuffled.
		span := 1 << (6 + rng.Intn(14))
		var elems []Elem
		for i, act := range active {
			if act {
				elems = append(elems, Elem{Index: i, Addr: 1<<24 + uint64(rng.Intn(span))&^7})
			}
		}
		if rng.Intn(2) == 0 {
			rng.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
		}
		gotS, gotR = cr.Pack(elems, iter)
		wantS, wantR = refPack(elems, iter)
		if !reflect.DeepEqual(gotS, wantS) || gotR != wantR {
			t.Fatalf("iter %d: Pack of %d elems: %d rounds %+v, want %d rounds %+v",
				iter, len(elems), gotR, gotS, wantR, wantS)
		}
	}
}

// randomActive returns a vl/mask pattern: all, a vl prefix, a random mask
// or none.
func randomActive(rng *rand.Rand) []bool {
	a := make([]bool, isa.VLMax)
	switch rng.Intn(4) {
	case 0:
		for i := range a {
			a[i] = true
		}
	case 1:
		vl := rng.Intn(isa.VLMax + 1)
		for i := 0; i < vl; i++ {
			a[i] = true
		}
	case 2:
		for i := range a {
			a[i] = rng.Intn(3) != 0
		}
	}
	return a
}

func stridedElems(base uint64, stride int64, active []bool) []Elem {
	var elems []Elem
	for i, act := range active {
		if act {
			elems = append(elems, Elem{Index: i, Addr: base + uint64(int64(i)*stride)})
		}
	}
	return elems
}
