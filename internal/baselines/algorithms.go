package baselines

import (
	"fmt"
	"strings"

	"cosma/internal/algo"
	"cosma/internal/core"
)

// Algorithms is the table of algorithms, in the paper's comparison order:
// COSMA first, then the baselines it is compared against (§9), then
// Cannon. It lives here because this package already imports every
// implementation.
var Algorithms = []algo.Spec{
	{
		Name:       "cosma",
		Display:    "COSMA",
		Summary:    "near-I/O-optimal S-partition schedule with §7.1 grid fitting (this paper)",
		Comparison: true,
		Plan:       core.Plan,
	},
	{
		Name:       "summa",
		Display:    "ScaLAPACK/SUMMA-2D",
		Aliases:    []string{"scalapack", "2d"},
		Summary:    "2D SUMMA on the most square grid — what ScaLAPACK's PDGEMM implements",
		Comparison: true,
		Plan:       planSUMMA,
	},
	{
		Name:       "2.5d",
		Display:    "CTF/2.5D",
		Aliases:    []string{"ctf", "c25d"},
		Summary:    "2.5D decomposition of Solomonik and Demmel — what CTF implements",
		Comparison: true,
		Plan:       plan25D,
	},
	{
		Name:       "carma",
		Display:    "CARMA-recursive",
		Aliases:    []string{"recursive"},
		Summary:    "recursive split-largest-dimension decomposition of Demmel et al.",
		Comparison: true,
		Plan:       planCARMA,
	},
	{
		Name:    "cannon",
		Display: "Cannon-2D",
		Aliases: []string{"torus"},
		Summary: "Cannon's algorithm on a square torus (1969) — needs square p and divisible dims",
		Plan:    planCannon, // outside the paper's comparison set (§9)
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
