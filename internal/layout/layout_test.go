package layout

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSplitBalanced(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		extent := r.Intn(1000)
		parts := 1 + r.Intn(20)
		rs := Split(extent, parts)
		if len(rs) != parts {
			return false
		}
		// Contiguous cover, balanced lengths.
		pos := 0
		minLen, maxLen := extent+1, -1
		for _, rr := range rs {
			if rr.Lo != pos {
				return false
			}
			pos = rr.Hi
			if rr.Len() < minLen {
				minLen = rr.Len()
			}
			if rr.Len() > maxLen {
				maxLen = rr.Len()
			}
		}
		return pos == extent && maxLen-minLen <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeIntersect(t *testing.T) {
	a := Range{2, 8}
	if got := a.Intersect(Range{5, 12}); got != (Range{5, 8}) {
		t.Fatalf("intersect = %v", got)
	}
	if got := a.Intersect(Range{9, 12}); got.Len() != 0 {
		t.Fatalf("disjoint intersect = %v", got)
	}
}
