// Command experiments regenerates the paper's tables and figures on the
// simulated substrate. With no arguments it prints everything; pass
// names from the table experiments.All (table1, fig6, table4,
// timevolume, ... — an unknown name lists them) to select individual
// experiments:
//
//	experiments [-network pizdaint|ethernet|sharedmem] [-calibrate] [name ...]
//
// The -network flag selects the α-β-γ preset the timed-transport
// experiments (timevolume, overlap) execute on. -calibrate first
// measures the local packed kernel (matrix.Calibrate) and substitutes
// the measured γ into the preset, so the reported compute times are
// calibrated to this machine rather than assumed. The comparison set is
// drawn from the table of algorithms; "algos" lists it.
package main

import (
	"flag"
	"fmt"
	"log"

	"cosma/internal/experiments"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	netName := flag.String("network", "pizdaint",
		"α-β-γ network preset for timed experiments: pizdaint, ethernet or sharedmem")
	calibrate := flag.Bool("calibrate", false,
		"measure the local packed kernel and substitute its γ into the network preset")
	flag.Parse()
	network, err := machine.NetworkByName(*netName)
	if err != nil {
		log.Fatal(err)
	}
	if *calibrate {
		cal := matrix.Calibrate(0, 0)
		fmt.Println(cal)
		network = network.WithGamma(cal.Gamma)
	}
	byName := make(map[string]experiments.Experiment, len(experiments.All))
	all := make([]string, len(experiments.All))
	for i, e := range experiments.All {
		byName[e.Name], all[i] = e, e.Name
	}
	want := flag.Args()
	if len(want) == 0 {
		want = all
	}
	for _, name := range want {
		e, ok := byName[name]
		if !ok {
			log.Fatalf("unknown experiment %q; available: %v", name, all)
		}
		for _, t := range e.Tables(network) {
			fmt.Println(t.String())
		}
	}
}
