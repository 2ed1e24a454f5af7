package creorder

import "repro/internal/isa"

// CRBox models the conflict-resolution box (§3.4): gather/scatter and
// self-conflicting-stride addresses do not form an arithmetic series the
// reordering scheme covers, so the box sorts them into bank-conflict-free
// buckets with a selection tournament.
//
// The hardware receives sixteen bank identifiers per cycle — one per
// address generator, i.e. one per lane — and keeps whatever lost the
// previous tournament. We model that exactly: per-lane FIFO queues of
// pending elements; each round the sixteen queue heads compete and the
// largest bank-distinct subset (one element per distinct bank, oldest lane
// first) is packed into a slice.
type CRBox struct {
	// Rounds accumulates tournament rounds run, which the Vbox timing
	// model charges one cycle each.
	Rounds int
	// Slices accumulates slices produced.
	Slices int
}

// Pack sorts the element addresses into conflict-free slices and returns
// them along with the number of tournament rounds the packing took. Element
// lane assignment follows the register file slicing (index mod 16). In the
// worst case — all addresses on one bank — a 128-element instruction yields
// 128 single-element slices (the paper's stated worst case).
//
// elems are the active elements of one vector instruction: distinct indices
// below isa.VLMax, so no lane queues more than VLMax/NumLanes of them. The
// returned slices share one backing Elem array.
func (cr *CRBox) Pack(elems []Elem, tag0 int) ([]Slice, int) {
	var lanes [isa.NumLanes][isa.VLMax / isa.NumLanes]Elem
	var head, tail [isa.NumLanes]int
	for _, e := range elems {
		l := LaneOf(e.Index)
		lanes[l][tail[l]] = e
		tail[l]++
	}
	if len(elems) == 0 {
		return nil, 0
	}
	packed := make([]Elem, 0, len(elems))
	var size [isa.VLMax]uint8 // elements won per round
	rounds := 0
	for len(packed) < len(elems) {
		var bankUsed [NumBanks]bool
		start := len(packed)
		for l := 0; l < isa.NumLanes; l++ {
			if head[l] == tail[l] {
				continue
			}
			head0 := lanes[l][head[l]]
			b := BankOf(head0.Addr)
			if bankUsed[b] {
				continue // loses this tournament, retries next round
			}
			bankUsed[b] = true
			packed = append(packed, head0)
			head[l]++
		}
		size[rounds] = uint8(len(packed) - start)
		rounds++
	}
	out := make([]Slice, rounds)
	off := 0
	for r := range out {
		end := off + int(size[r])
		out[r] = Slice{Tag: tag0 + r, Elems: packed[off:end:end], QWords: end - off}
		off = end
	}
	cr.Rounds += rounds
	cr.Slices += len(out)
	return out, rounds
}

// PackStrided routes a self-conflicting strided access (σ·2^s, s > 4, or a
// degenerate stride) through the CR box, per §3.4: "Any instruction with
// such a stride is treated exactly like a gather/scatter."
func (cr *CRBox) PackStrided(base uint64, strideBytes int64, active []bool, tag0 int) ([]Slice, int) {
	var buf [isa.VLMax]Elem
	elems := buf[:0]
	for i, act := range active {
		if !act {
			continue
		}
		elems = append(elems, Elem{Index: i, Addr: base + uint64(int64(i)*strideBytes)})
	}
	return cr.Pack(elems, tag0)
}
