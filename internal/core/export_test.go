package core

import (
	"cosma/internal/algo"
	"cosma/internal/grid"
)

// Unstaggered compiles the schedule NewPlan compiles from the same
// arguments with the layout's stagger off (plan.parts), and reports
// whether NewPlan staggers it.
func Unstaggered(name string, cfg algo.Config, g grid.Grid, m, n, k, p, s int, layer0 bool) (*algo.Plan, bool, error) {
	pl, err := newPlan(cfg, g, m, n, k, p, s, layer0)
	if err != nil {
		return nil, false, err
	}
	staggered := pl.stagger
	pl.stagger = false
	return pl.compile(name), staggered, nil
}

// Unbanded compiles the schedule NewPlan compiles from the same
// arguments with every A panel sent whole (plan.bands = 1), and returns
// the bands NewPlan grants it.
func Unbanded(name string, cfg algo.Config, g grid.Grid, m, n, k, p, s int, layer0 bool) (*algo.Plan, int, error) {
	pl, err := newPlan(cfg, g, m, n, k, p, s, layer0)
	if err != nil {
		return nil, 0, err
	}
	bands := pl.bands
	pl.bands = 1
	return pl.compile(name), bands, nil
}
