package cosma_test

import (
	"context"
	"fmt"

	"cosma"
)

// ExampleNewEngine builds an engine once and multiplies through it —
// the primary API. Repeated same-shape calls hit the plan cache and
// the pooled executors, paying only the execution cost.
func ExampleNewEngine() {
	eng, err := cosma.NewEngine(
		cosma.WithProcs(16),
		cosma.WithMemory(1<<20), // S words per rank
	)
	if err != nil {
		panic(err)
	}
	a := cosma.RandomMatrix(128, 128, 1)
	b := cosma.RandomMatrix(128, 128, 2)
	c, rep, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("C is %d×%d, computed on grid %s with %d ranks\n",
		c.Rows, c.Cols, rep.Model.Grid, rep.Model.Used)
	// Output:
	// C is 128×128, computed on grid [2×2×4] with 16 ranks
}

// ExampleEngine_Plan inspects the compiled schedule for a shape without
// executing anything: the §7.1 fitted grid and the §6.3 local-domain
// geometry.
func ExampleEngine_Plan() {
	eng, err := cosma.NewEngine(cosma.WithProcs(16), cosma.WithMemory(1<<17))
	if err != nil {
		panic(err)
	}
	plan, err := eng.Plan(context.Background(), 512, 512, 512)
	if err != nil {
		panic(err)
	}
	d, ok := plan.Decomposition()
	fmt.Println(plan.Algorithm(), ok)
	fmt.Println(d)
	// Output:
	// COSMA true
	// grid [2×2×4] (16 ranks), domain [256×256×128], 2 rounds of 64
}

// ExampleModel_Time prices a plan's model with the analytic α-β-γ runtime
// at the paper's 18,432-core scale — far too large to execute — on the
// Piz-Daint-like network preset. The fitted grid is [26×26×27] with a
// 631×631×607 local domain: γ·2·631²·607 = 13.13 ms of compute,
// β·(2·631·607·25/26 + 631²·26/27) = 31.11 ms for the panels and the 26
// blocks of its C share the fiber's other members send it, and
// α·(2·26 + 2·26) = 0.16 ms for 26 rounds of two broadcasts plus 26
// reduction blocks out and 26 in.
func ExampleModel_Time() {
	net := cosma.PizDaintNetwork()
	eng, err := cosma.NewEngine(
		cosma.WithProcs(18432), cosma.WithMemory(1<<25), cosma.WithNetwork(net))
	if err != nil {
		panic(err)
	}
	plan, err := eng.Plan(context.Background(), 16384, 16384, 16384)
	if err != nil {
		panic(err)
	}
	fmt.Printf("predicted %.1f ms\n", plan.Model().Time(net, false)*1e3)
	// Output:
	// predicted 44.5 ms
}
