package layout

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cosma/internal/machine"
	"cosma/internal/matrix"
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

// move redistributes every row of a row-distributed matrix from src to
// dst through Transfer, narrowed to the column range cols: the caller's
// destination band, nil for a rank outside dst.Team.
func move(r *machine.Rank, src RowDist, local *matrix.Dense, dst RowDist, cols Range, tag int) *matrix.Dense {
	var out *matrix.Dense
	if i := dst.indexOf(r.ID()); i >= 0 {
		out = matrix.New(dst.Band(i).Len(), cols.Len())
	}
	Transfer(r, src, local, Range{0, src.Rows}, cols, dst, 0, 0, out, false, tag)
	return out
}

func TestMoveRebalance(t *testing.T) {
	// 8 rows over 4 ranks → the first 2 ranks (half the team).
	p := 4
	rows, cols := 8, 3
	rng := rand.New(rand.NewSource(1))
	global := matrix.Random(rows, cols, rng)
	m := machine.New(p)
	got := make([]*matrix.Dense, p)
	src := RowDist{Rows: rows, Team: []int{0, 1, 2, 3}}
	dst := RowDist{Rows: rows, Team: []int{0, 1}}
	err := m.Run(func(r *machine.Rank) error {
		band := src.Band(r.ID())
		local := global.View(band.Lo, 0, band.Len(), cols).Clone()
		got[r.ID()] = move(r, src, local, dst, Range{0, cols}, 5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		band := dst.Band(i)
		want := global.View(band.Lo, 0, band.Len(), cols)
		if matrix.MaxDiff(got[i], want.Clone()) != 0 {
			t.Fatalf("rank %d block wrong", i)
		}
	}
	if got[2] != nil || got[3] != nil {
		t.Fatal("non-members received blocks")
	}
}

func TestMoveColumnSlice(t *testing.T) {
	// Narrow to a column range while redistributing to a disjoint team.
	rows, cols := 6, 10
	rng := rand.New(rand.NewSource(2))
	global := matrix.Random(rows, cols, rng)
	m := machine.New(4)
	got := make([]*matrix.Dense, 4)
	src := RowDist{Rows: rows, Team: []int{0, 1}}
	dst := RowDist{Rows: rows, Team: []int{2, 3}}
	colRange := Range{4, 9}
	err := m.Run(func(r *machine.Rank) error {
		var local *matrix.Dense
		if r.ID() < 2 {
			band := src.Band(r.ID())
			local = global.View(band.Lo, 0, band.Len(), cols).Clone()
		}
		got[r.ID()] = move(r, src, local, dst, colRange, 9)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i < 4; i++ {
		band := dst.Band(i - 2)
		want := global.View(band.Lo, colRange.Lo, band.Len(), colRange.Len()).Clone()
		if matrix.MaxDiff(got[i], want) != 0 {
			t.Fatalf("rank %d slice wrong", i)
		}
	}
}

func TestMoveSelfOverlapFree(t *testing.T) {
	// Identical src and dst team: no traffic should be counted.
	rows, cols := 8, 2
	rng := rand.New(rand.NewSource(3))
	global := matrix.Random(rows, cols, rng)
	m := machine.New(2)
	dist := RowDist{Rows: rows, Team: []int{0, 1}}
	err := m.Run(func(r *machine.Rank) error {
		band := dist.Band(r.ID())
		local := global.View(band.Lo, 0, band.Len(), cols).Clone()
		out := move(r, dist, local, dist, Range{0, cols}, 1)
		if matrix.MaxDiff(out, local) != 0 {
			t.Errorf("rank %d: self move changed data", r.ID())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.TotalVolume() != 0 {
		t.Fatalf("self move counted %d words", m.TotalVolume())
	}
}
