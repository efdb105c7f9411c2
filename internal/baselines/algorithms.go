package baselines

import (
	"fmt"
	"strings"

	"cosma/internal/algo"
	"cosma/internal/core"
	"cosma/internal/grid"
)

// Algorithms is the table of algorithms, in the paper's comparison order:
// COSMA first, then the baselines it is compared against (§9). It lives
// here because this package already imports every implementation.
var Algorithms = []algo.Spec{
	{
		Name:    "cosma",
		Display: "COSMA",
		Summary: "near-I/O-optimal S-partition schedule with §7.1 grid fitting (this paper)",
		Plan:    core.Plan,
	},
	{
		Name:    "summa",
		Display: "ScaLAPACK/SUMMA-2D",
		Aliases: []string{"scalapack", "2d"},
		Summary: "2D SUMMA on the most square grid — what ScaLAPACK's PDGEMM implements",
		// Algorithm 1 on grid.Square, every rank used and no fiber, so C
		// never moves: what the ranks receive (the k(m+n)/√p row of Table
		// 3) is the plan's own count, compiled from cfg exactly like
		// COSMA's, so timed comparisons pit like schedules.
		Plan: func(cfg algo.Config, m, n, k, p, s int) (*algo.Plan, error) {
			return core.NewPlan("ScaLAPACK/SUMMA-2D", cfg, grid.Square(p), m, n, k, p, s, false)
		},
	},
	{
		Name:    "2.5d",
		Display: "CTF/2.5D",
		Aliases: []string{"ctf", "c25d"},
		Summary: "2.5D decomposition of Solomonik and Demmel — what CTF implements",
		// Algorithm 1 on grid.Layers' c layers (§2.4): the inputs start on
		// layer 0, which scatters each layer its k slab's pieces, every
		// layer runs SUMMA on its slab and the fiber reduces C. With c = 1
		// it is SUMMA, with c = p^(1/3) the 3D decomposition of Agarwal et al.
		Plan: func(cfg algo.Config, m, n, k, p, s int) (*algo.Plan, error) {
			return core.NewPlan("CTF/2.5D", cfg, grid.Layers(m, n, k, p, s), m, n, k, p, s, true)
		},
	},
	{
		Name:    "carma",
		Display: "CARMA-recursive",
		Aliases: []string{"recursive"},
		Summary: "recursive split-largest-dimension decomposition of Demmel et al.",
		Plan:    planCARMA,
	},
}

// Lookup returns the row whose name or alias is name, case-insensitively.
func Lookup(name string) (algo.Spec, error) {
	var names []string
	for _, s := range Algorithms {
		for _, key := range append([]string{s.Name}, s.Aliases...) {
			if strings.EqualFold(key, name) {
				return s, nil
			}
		}
		names = append(names, s.Name)
	}
	return algo.Spec{}, fmt.Errorf("algo: unknown algorithm %q (have %s)", name, strings.Join(names, ", "))
}
