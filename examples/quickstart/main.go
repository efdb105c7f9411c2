// Quickstart: build an Engine, inspect the cached plan for a shape, and
// multiply on a simulated 16-rank machine, comparing the measured
// communication with the Theorem 2 lower bound. The second
// multiplication reuses the cached plan and a pooled executor, paying
// only the execution cost.
package main

import (
	"context"
	"fmt"
	"log"

	"cosma"
)

func main() {
	const (
		m, n, k = 256, 256, 256
		procs   = 16
		memory  = 1 << 14 // words per rank
	)
	ctx := context.Background()
	eng, err := cosma.NewEngine(cosma.WithProcs(procs), cosma.WithMemory(memory))
	if err != nil {
		log.Fatal(err)
	}

	// Inspect the schedule first: grid, local domain, rounds. The plan
	// is cached — the Exec below will not fit the grid again.
	plan, err := eng.Plan(ctx, m, n, k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %v\n", plan)

	a := cosma.RandomMatrix(m, k, 1)
	b := cosma.RandomMatrix(k, n, 2)
	c, rep, err := eng.Exec(ctx, a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C[0,0] = %.6f (%d×%d result)\n", c.At(0, 0), c.Rows, c.Cols)
	fmt.Printf("grid %s, %d of %d ranks used\n", rep.Model.Grid, rep.Model.Used, rep.P)
	fmt.Printf("measured: avg %.0f words received/rank (max %d), %d messages max\n",
		rep.AvgRecv, rep.MaxRecv, rep.MaxMsgs)
	fmt.Printf("Theorem 2 lower bound: %.0f words/rank\n",
		cosma.ParallelLowerBound(m, n, k, procs, memory))
	fmt.Printf("model prediction: %.0f words/rank\n", rep.Model.AvgRecv)

	// A second same-shape multiplication is a pure cache hit.
	if _, _, err := eng.Exec(ctx, b, a); err != nil {
		log.Fatal(err)
	}
	stats := eng.CacheStats()
	fmt.Printf("plan cache: %d hit(s), %d miss(es) for %d shape(s)\n",
		stats.Hits, stats.Misses, stats.Len)
}
