package algo

import "cosma/internal/machine"

// Config carries the options a plan is compiled under, both read by the
// four Algorithm 1 policies (COSMA, SUMMA, 2.5D, CARMA).
type Config struct {
	// Overlap asks to software-pipeline the round loop (§7.3): panels
	// for round i+1 are prefetched with non-blocking broadcasts while
	// the kernel multiplies round i's. A plan grants it only where S
	// holds the second panel pair (Plan.Overlap).
	Overlap bool
	// Network is the α-β-γ machine the plan will execute on, nil for a
	// counting one. A synchronous plan derives from it how many row
	// blocks to broadcast its A panels in; without one it sends each
	// panel whole.
	Network *machine.NetworkParams
}

// Spec is one row of the table of algorithms (baselines.Algorithms).
type Spec struct {
	// Name is the canonical lower-case lookup key ("cosma", "summa",
	// "2.5d", "carma").
	Name string
	// Display is the name the algorithm's plans and reports carry
	// ("COSMA", "ScaLAPACK/SUMMA-2D", ...).
	Display string
	// Aliases are alternative lookup keys ("scalapack", "ctf", ...).
	Aliases []string
	// Summary is a one-line description for CLIs.
	Summary string
	// Plan compiles the schedule for an m×k by k×n multiplication on p
	// ranks with s words of memory each. It performs all grid fitting;
	// executing the returned plan does none, and the plan's Model is the
	// only prediction there is, so no model exists of a schedule that
	// cannot be planned. A valid (m, n, k, p, s) the algorithm cannot
	// schedule is refused with ErrUnsupportedShape.
	Plan func(cfg Config, m, n, k, p, s int) (*Plan, error)
}
