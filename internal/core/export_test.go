package core

import (
	"cosma/internal/algo"
	"cosma/internal/grid"
)

// Unstaggered compiles the schedule NewPlan compiles from the same
// arguments with the layout's stagger off (plan.parts), and reports
// whether NewPlan staggers it.
func Unstaggered(name string, g grid.Grid, m, n, k, p, s int, overlap, layer0 bool) (*algo.Plan, bool, error) {
	pl, err := newPlan(g, m, n, k, p, s, overlap, layer0)
	if err != nil {
		return nil, false, err
	}
	staggered := pl.stagger
	pl.stagger = false
	d := pl.geometry()
	return &algo.Plan{
		Model: pl.count(name, d),
		M:     m, N: n, K: k, P: p,
		Geometry: &d,
		Overlap:  pl.overlap,
		Execute:  pl.Execute,
	}, staggered, nil
}
