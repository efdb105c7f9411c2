package algo

// Config carries the options a plan is compiled under. Delta is read by
// COSMA alone — the baselines fix their grid upfront — and Overlap by the
// three Algorithm 1 policies (COSMA, SUMMA, 2.5D).
type Config struct {
	// Delta is the grid-fitting idle-rank tolerance δ of §7.1; zero
	// means core.DefaultDelta.
	Delta float64
	// Overlap software-pipelines the round loop (§7.3): panels for
	// round i+1 are prefetched with non-blocking broadcasts while the
	// kernel multiplies round i's. CARMA and Cannon execute
	// synchronously regardless.
	Overlap bool
}

// Spec is one row of the table of algorithms (baselines.Algorithms).
type Spec struct {
	// Name is the canonical lower-case lookup key ("cosma", "summa",
	// "2.5d", "carma", "cannon").
	Name string
	// Display is the name the algorithm's plans and reports carry
	// ("COSMA", "ScaLAPACK/SUMMA-2D", ...).
	Display string
	// Aliases are alternative lookup keys ("scalapack", "ctf", ...).
	Aliases []string
	// Summary is a one-line description for CLIs.
	Summary string
	// Comparison marks membership in the paper's default comparison
	// set (Cannon is listed but excluded, as in §9).
	Comparison bool
	// Plan compiles the schedule for an m×k by k×n multiplication on p
	// ranks with s words of memory each. It performs all grid fitting;
	// executing the returned plan does none, and the plan's Model is the
	// only prediction there is, so no model exists of a schedule that
	// cannot be planned. A valid (m, n, k, p, s) the algorithm cannot
	// schedule is refused with ErrUnsupportedShape.
	Plan func(cfg Config, m, n, k, p, s int) (*Plan, error)
}
