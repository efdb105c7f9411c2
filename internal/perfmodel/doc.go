// Package perfmodel converts an algorithm's per-rank flop, word and
// message counts into simulated time and % of peak performance. It
// stands in for the Piz Daint testbed of §8: every algorithm is
// charged the same machine constants, so runtime and %-peak orderings
// follow the measured and modeled communication volumes — which is
// what Figures 8–14 compare.
//
// Every second it reports is machine.NetworkParams.Time or TimeOverlap
// of some (flops, words, msgs) — the function the timed transport's own
// predictions use — so a figure-level table can never price a network
// differently from a timed run. A calibrated compute rate arrives the
// same way as everywhere else: NetworkParams.WithGamma with
// matrix.Calibrate's measured γ.
package perfmodel
