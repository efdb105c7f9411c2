package core

import (
	"cosma/internal/algo"
	"cosma/internal/grid"
)

// Twin compiles the schedule NewPlan compiles from the same arguments
// with the layout's stagger off (plan.parts) and every A panel sent
// whole (plan.bands = 1), and reports whether NewPlan staggers it and
// how many bands it grants.
func Twin(name string, cfg algo.Config, g grid.Grid, m, n, k, p, s int, layer0 bool) (twin *algo.Plan, staggered bool, bands int, err error) {
	sc, err := newSchedule(cfg, g, 1, 1, m, n, k, p, s, layer0)
	if err != nil {
		return nil, false, 0, err
	}
	pl := sc.blocks[0]
	staggered, bands = pl.stagger, pl.bands
	pl.stagger, pl.bands = false, 1
	return sc.compile(name), staggered, bands, nil
}
