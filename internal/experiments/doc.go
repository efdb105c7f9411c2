// Package experiments regenerates every table and figure of the
// paper's evaluation (§8–9) on the simulated substrate: communication
// volumes (Figures 6–7, Table 4), % of peak and runtime under the
// performance model (Figures 8–11, 13–14), the
// communication/computation breakdown (Figure 12), the decomposition
// comparisons (Table 1/3, Figures 3 and 5), the sequential I/O
// optimality results (Listing 1 / Theorem 1), and the timed-transport
// time-vs-volume comparison (TimeVsVolume, the Figure 6 shape with
// runtime on the y axis).
//
// Small-scale points are executed on the machine simulator with real
// data movement; paper-scale points are the models of plans compiled at
// that scale (sweep plans each scenario once), which the test suite holds
// equal to execution. Table 3 alone evaluates the paper's closed forms
// (table3.go) instead of a plan. The timed
// experiments accept any machine.NetworkParams, including presets
// whose γ has been replaced by a matrix.Calibrate measurement
// (cmd/experiments -calibrate).
//
// All is the one ordered table of experiments cmd/experiments iterates;
// TestExperimentsGolden pins every cell it renders under the pizdaint
// preset to testdata/experiments.golden. Runtimes are Model.Time; percent
// of peak (cell.pctPeak) and Figure 12's compute / input / output split
// are written beside the tables that print them.
package experiments
