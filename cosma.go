// Package cosma is a Go reproduction of "Red-Blue Pebbling Revisited:
// Near Optimal Parallel Matrix-Matrix Multiplication" (Kwasniewski et
// al., SC 2019): the COSMA algorithm, its I/O lower-bound theory, the
// near-optimal sequential schedule, the 2D / 2.5D / recursive baselines,
// and a simulated distributed machine on which all of them execute with
// exact communication accounting.
//
// The primary API is the Engine, which splits a multiplication into a
// cached planning phase (grid fitting, §6.3/§7.1 — independent of the
// matrix values) and a cheap execution phase:
//
//	eng, _ := cosma.NewEngine(cosma.WithProcs(16), cosma.WithMemory(1<<20))
//	a := cosma.RandomMatrix(512, 512, 1)
//	b := cosma.RandomMatrix(512, 512, 2)
//	c, rep, err := eng.Exec(context.Background(), a, b)
//
// Repeated same-shape multiplications reuse the cached plan and the
// engine's pooled executors (pre-built machines and per-rank buffers),
// so they pay only the execution cost.
//
// The returned report carries the measured per-rank communication
// volume, which sits within the √S/(√(S+1)−1) factor of the Theorem 2
// lower bound (ParallelLowerBound).
package cosma

import (
	"math/rand"

	"cosma/internal/algo"
	"cosma/internal/baselines"
	"cosma/internal/bound"
	"cosma/internal/core"
	"cosma/internal/machine"
	"cosma/internal/machine/wire"
	"cosma/internal/matrix"
	"cosma/internal/seq"
)

// Matrix is a dense row-major float64 matrix. One element is one "word"
// of the paper's I/O analyses.
type Matrix = matrix.Dense

// Report describes an executed distributed multiplication: the grid, the
// measured per-rank traffic, and the algorithm's analytic prediction.
type Report = algo.Report

// Model is an algorithm's analytic communication/computation prediction.
type Model = algo.Model

// UnboundedMemory is the per-rank memory in words treated as "no limit"
// by option normalization (the schedule never tiles against it).
const UnboundedMemory = 1 << 40

// DefaultDelta is the default grid-fitting idle-rank tolerance δ of
// §7.1 — the value the paper's Piz Daint experiments use.
const DefaultDelta = core.DefaultDelta

// NetworkParams are the α-β-γ constants of the timed machine model: α
// seconds of latency per message, β seconds per 8-byte word, γ seconds
// per flop. Passing one via WithNetwork executes the multiplication
// on the timed transport, so the report carries runtime predictions
// (PredictedTime, CritPathTime) alongside the counted volumes.
type NetworkParams = machine.NetworkParams

// PizDaintNetwork returns the Piz-Daint-like interconnect constants the
// paper's testbed corresponds to (Aries: 1.5 µs, 0.29 GB/s per core).
func PizDaintNetwork() NetworkParams { return machine.PizDaintNet() }

// EthernetNetwork returns a latency-heavy 10 GbE commodity-cluster
// profile.
func EthernetNetwork() NetworkParams { return machine.CommodityEthernet() }

// SharedMemoryNetwork returns an intra-node profile where communication
// nearly vanishes against compute.
func SharedMemoryNetwork() NetworkParams { return machine.SharedMemory() }

// NetworkByName resolves a preset name ("pizdaint", "ethernet",
// "sharedmem"), for command-line flags.
func NetworkByName(name string) (NetworkParams, error) { return machine.NetworkByName(name) }

// WireConfig describes this process's place in a wire-transport
// cluster: its index Rank in the shared peer address list Peers
// ("tcp://host:port" or "unix:///path"; a bare host:port is TCP).
// Several ranks may share one address, in which case they live in the
// same process. Pass it to NewEngine via WithWireTransport.
type WireConfig = wire.Config

// ErrRecvTimeout is wrapped by run errors when a receive exceeds the
// WithRecvTimeout bound; test with errors.Is.
var ErrRecvTimeout = machine.ErrRecvTimeout

// FaultPlan declares faults to inject into every execution of an
// engine configured with WithFaultPlan: rank deaths in a chosen
// communication round, message drops and delays on chosen links, and
// slow ranks.
// Injected failures surface as prompt Exec errors — never hangs —
// on all three transports; deaths wrap ErrFaultInjected, drops and
// wall-clock delays trip the WithRecvTimeout deadline as
// ErrRecvTimeout.
type FaultPlan = machine.FaultPlan

// RankDeath kills one rank inside its communication round Round
// (0-based): it receives that round's panels and dies before
// multiplying them. A Round at or past Decomposition.Rounds never fires.
type RankDeath = machine.RankDeath

// MessageDrop silently discards messages on the Src→Dst link after
// the first After have been let through (-1 wildcards a side).
type MessageDrop = machine.MessageDrop

// MessageDelay slows the Src→Dst link: Seconds of simulated time on
// the timed transport, Wall of real sender-side stall on any.
type MessageDelay = machine.MessageDelay

// SlowRank stretches one rank's compute: Factor multiplies its γ
// charge on the timed transport, PerCompute adds a real stall.
type SlowRank = machine.SlowRank

// Corrupt silently flips or scales one word of a message on the
// Src→Dst link after the first After messages — a silent data
// corruption that no transport-level check notices, detectable only
// by ABFT verification (WithVerification).
type Corrupt = machine.Corrupt

// ErrPeerFailure is wrapped by wire-transport run errors caused by a
// lost or aborted peer process; test with errors.Is. Engine.Recover
// (or a WithRetry policy, which calls it automatically) heals the
// mesh afterwards.
var ErrPeerFailure = wire.ErrPeerFailure

// ErrFaultInjected is wrapped by run errors caused by a FaultPlan
// rank death; test with errors.Is.
var ErrFaultInjected = machine.ErrFaultInjected

// ErrUnsupportedShape is wrapped by Plan and Exec errors when the
// engine's algorithm cannot schedule an otherwise valid shape — Cannon
// off a square torus that divides the dimensions, SUMMA's or 2.5D's fixed
// grid on a shorter dimension; test with errors.Is.
var ErrUnsupportedShape = algo.ErrUnsupportedShape

// WireFromEnv reads the wire bootstrap handshake from the environment
// (WIRE_RANK, WIRE_PEERS) and reports whether one is present — the way
// a launched worker process discovers its cluster. The launcher sets
// the variables via WireEnv.
func WireFromEnv() (WireConfig, bool, error) { return wire.FromEnv() }

// WireEnv returns the environment entries (WIRE_RANK, WIRE_PEERS) that
// make WireFromEnv in a child process yield the given rank and peer
// list — append them to exec.Cmd.Env when spawning cluster workers.
func WireEnv(rank int, peers []string) []string { return wire.Env(rank, peers) }

// WireSocketAddrs returns p Unix-domain socket addresses under dir,
// the standard peer list for a single-machine wire cluster.
func WireSocketAddrs(dir string, p int) []string { return wire.SocketAddrs(dir, p) }

// WireTCPAddrs returns p TCP addresses host:base … host:base+p−1, the
// standard peer list for a networked wire cluster.
func WireTCPAddrs(host string, base, p int) []string { return wire.TCPAddrs(host, base, p) }

// Calibration is the measured local-compute profile of this machine:
// the packed kernel's sustained Gflop/s (and the micro-kernel variant
// it dispatched to) and its reciprocal γ in seconds per flop.
type Calibration = matrix.Calibration

// Calibrate measures the packed local GEMM kernel on this machine
// (n <= 0 picks the default problem size, threads <= 0 means GOMAXPROCS)
// and returns the measured γ. The kernel dispatches to the best SIMD
// micro-kernel variant the CPU supports — the same default executions
// use — and the result names it. Measurements are memoized per
// (n, threads) for the process lifetime. Substitute the result into a
// network preset to make predictions charge compute at the achieved,
// not assumed, rate:
//
//	cal := cosma.Calibrate(0, 0)
//	eng, _ := cosma.NewEngine(cosma.WithProcs(p),
//	    cosma.WithNetwork(cosma.PizDaintNetwork().WithGamma(cal.Gamma)))
func Calibrate(n, threads int) Calibration { return matrix.Calibrate(n, threads) }

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix { return matrix.New(r, c) }

// MatrixFromSlice wraps a row-major slice as an r×c matrix without
// copying.
func MatrixFromSlice(r, c int, data []float64) *Matrix { return matrix.FromSlice(r, c, data) }

// RandomMatrix returns an r×c matrix with entries uniform in [-1, 1),
// deterministic in seed.
func RandomMatrix(r, c int, seed int64) *Matrix {
	return matrix.Random(r, c, rand.New(rand.NewSource(seed)))
}

// SequentialResult reports an executed near-I/O-optimal sequential
// multiplication (Listing 1): the product C and the exact vertical I/O
// (Loads, Stores, their sum IO(), the Peak residency and the tile).
type SequentialResult = seq.Result

// MultiplySequential computes C = A·B with the near-optimal sequential
// schedule under a fast memory of s words (s ≥ 4), counting every load
// and store. The measured I/O is within √S/(√(S+1)−1) of
// SequentialLowerBound.
func MultiplySequential(a, b *Matrix, s int) *SequentialResult { return seq.Multiply(a, b, s) }

// SequentialLowerBound is Theorem 1: any schedule multiplying m×k by k×n
// with fast memory S performs at least 2mnk/√S + mn I/O operations.
func SequentialLowerBound(m, n, k, s int) float64 {
	return bound.SequentialLowerBound(m, n, k, s)
}

// ParallelLowerBound is Theorem 2: the per-processor communication of any
// classical MMM on p processors with S words each is at least
// min{2mnk/(p√S) + S, 3(mnk/p)^(2/3)}.
func ParallelLowerBound(m, n, k, p, s int) float64 {
	return bound.ParallelLowerBound(m, n, k, p, s)
}

// Decomposition describes the schedule COSMA would use for a problem:
// the processor grid and the local-domain geometry of §6.3.
type Decomposition = algo.Decomposition

// Algorithms returns the canonical names of every algorithm ("cosma",
// "summa", "2.5d", "carma", "cannon") in the paper's comparison order
// followed by the extras. Any of them (or their aliases) is a valid
// WithAlgorithm argument.
func Algorithms() []string {
	names := make([]string, len(baselines.Algorithms))
	for i, s := range baselines.Algorithms {
		names[i] = s.Name
	}
	return names
}

// AlgorithmInfo describes one row of the table of algorithms.
type AlgorithmInfo struct {
	Name    string   // canonical lookup key, e.g. "cosma", "2.5d"
	Aliases []string // alternative lookup keys, e.g. "ctf"
	Summary string   // one-line description
}

// AlgorithmInfos returns name, aliases and a one-line summary for every
// algorithm, for CLIs and docs.
func AlgorithmInfos() []AlgorithmInfo {
	infos := make([]AlgorithmInfo, len(baselines.Algorithms))
	for i, s := range baselines.Algorithms {
		infos[i] = AlgorithmInfo{Name: s.Name, Aliases: s.Aliases, Summary: s.Summary}
	}
	return infos
}
