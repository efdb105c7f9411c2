// RPA: the tall-and-skinny workload that motivates COSMA (§8) — the
// random-phase-approximation energy calculation for w water molecules
// multiplies m×k by k×n with m = n = 136·w and k = 228·w², a shape on
// which 2D decompositions are catastrophically communication-bound.
//
// The example executes a scaled-down instance (w = 2) on the simulated
// machine with every algorithm, then evaluates the paper-scale instance
// (w = 128, m = n = 17408, k = 3,735,552 on 4096 cores) analytically.
package main

import (
	"context"
	"fmt"
	"log"

	"cosma"
	"cosma/internal/report"
	"cosma/internal/workload"
)

func main() {
	// Executed small instance: w = 2 molecules.
	m, n, k := workload.RPA(2)
	const procs, memory = 16, 1 << 16
	fmt.Printf("RPA w=2: C(%d×%d) = A(%d×%d) · B(%d×%d) on %d ranks\n\n",
		m, n, m, k, k, n, procs)

	ctx := context.Background()
	a := cosma.RandomMatrix(m, k, 1)
	b := cosma.RandomMatrix(k, n, 2)
	executed := report.NewTable("executed on the simulated machine",
		"algorithm", "grid", "avg recv words/rank", "max msgs")
	for _, name := range cosma.Algorithms() {
		eng, err := cosma.NewEngine(cosma.WithAlgorithm(name),
			cosma.WithProcs(procs), cosma.WithMemory(memory))
		if err != nil {
			log.Printf("%s: %v", name, err)
			continue
		}
		_, rep, err := eng.Exec(ctx, a, b)
		if err != nil {
			log.Printf("%s: %v", name, err)
			continue
		}
		executed.AddRow(rep.Model.Name, rep.Model.Grid, rep.AvgRecv, rep.MaxMsgs)
	}
	fmt.Println(executed.String())

	// Paper-scale instance, model-evaluated: w = 128 on 4096 cores.
	M, N, K := workload.RPA(128)
	P := 4096
	S := workload.MemoryWordsPerCore
	fmt.Printf("RPA w=128 (paper's strong-scaling workload): %d×%d×%d on %d cores\n\n", M, N, K, P)
	atScale := report.NewTable("model at paper scale",
		"algorithm", "decomposition", "MB received/rank")
	for _, name := range cosma.Algorithms() {
		eng, err := cosma.NewEngine(cosma.WithAlgorithm(name),
			cosma.WithProcs(P), cosma.WithMemory(S))
		if err != nil {
			log.Printf("%s: %v", name, err)
			continue
		}
		pl, err := eng.Plan(ctx, M, N, K)
		if err != nil {
			log.Printf("%s: %v", name, err)
			continue
		}
		mod := pl.Model()
		atScale.AddRow(mod.Name, mod.Grid, mod.AvgRecv*8/1e6)
	}
	fmt.Println(atScale.String())
	fmt.Printf("Theorem 2 lower bound: %.0f MB/rank\n",
		cosma.ParallelLowerBound(M, N, K, P, S)*8/1e6)
}
