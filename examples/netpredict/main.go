// Example netpredict shows the timed network backend: the same COSMA
// multiplication executed on three interconnect presets, with the
// measured event-clock critical path against the analytic α-β-γ
// prediction — and the prediction alone evaluated at the paper's
// 18,432-core scale, which is far too large to execute.
package main

import (
	"context"
	"fmt"

	"cosma"
)

func main() {
	ctx := context.Background()
	a := cosma.RandomMatrix(256, 256, 1)
	b := cosma.RandomMatrix(256, 256, 2)

	for _, net := range []cosma.NetworkParams{
		cosma.PizDaintNetwork(),
		cosma.EthernetNetwork(),
		cosma.SharedMemoryNetwork(),
	} {
		eng, err := cosma.NewEngine(
			cosma.WithProcs(16), cosma.WithMemory(1<<14), cosma.WithNetwork(net))
		if err != nil {
			panic(err)
		}
		_, rep, err := eng.Exec(ctx, a, b)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-9s  critical path %10.1fµs   predicted %10.1fµs   (%d words max/rank)\n",
			net.Name, rep.CritPathTime*1e6, rep.PredictedTime*1e6, rep.MaxRecv)
	}

	// Paper scale, analytically: Table 4's square strong-scaling point.
	eng, err := cosma.NewEngine(
		cosma.WithProcs(18432), cosma.WithMemory(1<<25),
		cosma.WithNetwork(cosma.PizDaintNetwork()))
	if err != nil {
		panic(err)
	}
	pred, err := eng.Predict(ctx, 16384, 16384, 16384)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nCOSMA m=n=k=16384 on p=18432 (Piz-Daint-like): predicted %.1f ms\n",
		pred.SerialTime*1e3)
}
