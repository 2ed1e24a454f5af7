package bench

import (
	"math"
	"testing"
)

// TestReuseCeiling: the bound reduces to n(W+R)/(W+nR) for equal ROIs and
// is 1 (no gain possible) when there is no warm-up to skip.
func TestReuseCeiling(t *testing.T) {
	w, r := 14741.0, 20419.0
	want := 3 * (w + r) / (w + 3*r)
	if got := reuseCeiling(14741, []uint64{20419, 20419, 20419}); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ceiling %v, want %v", got, want)
	}
	if got := reuseCeiling(0, []uint64{5, 7, 9}); got != 1 {
		t.Fatalf("ceiling without a warm-up %v, want 1", got)
	}
}
