package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/grid"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestCOSMAOverlapBitwiseIdentical runs the pipelined and the
// synchronous schedules over uneven shapes and several machine sizes
// and demands bit-for-bit equal products: the pipeline reorders
// communication only, never the kernel call sequence.
func TestCOSMAOverlapBitwiseIdentical(t *testing.T) {
	a := matrix.Random(96, 112, rng(1))
	b := matrix.Random(112, 80, rng(2))
	for _, p := range []int{4, 8, 16} {
		s := 12 * 96 * 80 / p // room for two panel pairs, two rounds or more
		cSync, _, err := algo.Run(Plan, algo.Config{Overlap: false}, nil, a, b, p, s)
		if err != nil {
			t.Fatalf("p=%d sync: %v", p, err)
		}
		cPipe, _, err := algo.Run(Plan, algo.Config{Overlap: true}, nil, a, b, p, s)
		if err != nil {
			t.Fatalf("p=%d overlap: %v", p, err)
		}
		assertBitwiseEqual(t, cSync, cPipe, p)
	}
}

// TestCOSMAOverlapCritPathLower is the paper-facing acceptance
// property (§7.3, Figure 12): at m=n=k=512 on p=16 timed ranks, with S
// holding two panel pairs of the plan's two rounds, the pipelined
// schedule's measured critical path is strictly below the synchronous
// one's, and respects Model.Time's overlap semantics —
// communication hides up to (but never below) the per-rank compute
// time, so the overlapped critical path still dominates the pure
// compute term.
func TestCOSMAOverlapCritPathLower(t *testing.T) {
	const n, p = 512, 16
	s := 8 * n * n / p
	net := machine.PizDaintNet()
	a := matrix.Random(n, n, rng(3))
	b := matrix.Random(n, n, rng(4))

	run := func(overlap bool) (*matrix.Dense, *algo.Report) {
		out, rep, err := algo.Run(Plan, algo.Config{Overlap: overlap}, &net, a, b, p, s)
		if err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		return out, rep
	}
	cSync, repSync := run(false)
	cPipe, repPipe := run(true)

	if repPipe.CritPathTime >= repSync.CritPathTime {
		t.Errorf("overlapped critical path %v is not strictly below synchronous %v",
			repPipe.CritPathTime, repSync.CritPathTime)
	}

	// Model.Time's overlap semantics: the hidden communication cannot push
	// the critical path below the busiest rank's compute time.
	pl, err := Plan(algo.Config{}, n, n, n, p, s)
	if err != nil {
		t.Fatal(err)
	}
	d := pl.Geometry
	computeOnly := net.Gamma * 2 * float64(d.DomainM) * float64(d.DomainN) * float64(d.DomainK)
	if repPipe.CritPathTime < computeOnly {
		t.Errorf("overlapped critical path %v below the compute-only bound %v: overlap hid compute, not just communication",
			repPipe.CritPathTime, computeOnly)
	}

	// Both reports' models price on the run's network, overlapped ≤ serial.
	for _, rep := range []*algo.Report{repSync, repPipe} {
		serial, overlap := rep.Model.Time(rep.Network, false), rep.Model.Time(rep.Network, true)
		if overlap <= 0 || serial <= 0 {
			t.Fatalf("missing predictions in report: %+v", rep)
		}
		if overlap > serial {
			t.Errorf("predicted overlap time %v exceeds serial %v", overlap, serial)
		}
	}
	if repSync.Overlap || !repPipe.Overlap {
		t.Errorf("Overlap flags: sync=%v pipe=%v, want false/true", repSync.Overlap, repPipe.Overlap)
	}

	// The timed pipelined run must still produce the exact product.
	assertBitwiseEqual(t, cSync, cPipe, p)
}

// TestFiberReduceOverlapsLastRound pins when the fiber reduction ends on
// a [1×1×Pk] grid, where there is no broadcast and every rank's clock is
// its rounds plus the reduce-scatter. Each rank multiplies the last
// round one 16-row band per C block, sending each block as its band is
// done, so the first block lands one band and one α into the round and
// the other Pk−2 queue behind it on the ingress port — β·|block| exceeds
// a band plus α here. Every rank therefore finishes at
//
//	(rounds−1 full rounds) + one band + α + (Pk−1)·β·|block|,
//
// not after the whole last round and Pk−1 serial (α + β·|block|)
// receives. The bands' flops add up to the rank's whole domain on the
// flop counter, and the product is right.
func TestFiberReduceOverlapsLastRound(t *testing.T) {
	const m, n, pk, slab, h = 64, 64, 4, 96, 32
	g := grid.Grid{Pm: 1, Pn: 1, Pk: pk}
	pl, err := NewPlan("COSMA", algo.Config{}, g, m, n, pk*slab, pk, m*n+h*(m+n), false)
	if err != nil {
		t.Fatal(err)
	}
	rounds := pl.Geometry.Rounds
	if rounds != slab/h {
		t.Fatalf("%d rounds, want %d", rounds, slab/h)
	}
	net := machine.PizDaintNet()
	mach := machine.NewTimed(pk, net)
	a, b := matrix.Random(m, pk*slab, rng(5)), matrix.Random(pk*slab, n, rng(6))
	got, err := pl.Execute(context.Background(), mach, algo.NewArena(pk), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := mulRef(a, b); !matrix.EqualWithin(got, want, 1e-9) {
		t.Fatalf("product off by %g", matrix.MaxDiff(got, want))
	}

	const block = m * n / pk
	round := net.Gamma * float64(matrix.MulFlops(m, n, h))
	band := net.Gamma * float64(matrix.MulFlops(block/n, n, h))
	if net.Beta*block < band+net.Alpha {
		t.Fatalf("β·|block| = %g below a band plus α (%g): the blocks would not queue back to back", net.Beta*block, band+net.Alpha)
	}
	want := float64(rounds-1)*round + band + net.Alpha + (pk-1)*net.Beta*block
	if got := mach.MaxTime(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("reduction ends at %.17g s, want %.17g", got, want)
	}
	for id := 0; id < pk; id++ {
		if got, want := mach.Counters(id).Flops, matrix.MulFlops(m, n, slab); got != want {
			t.Errorf("rank %d charged %d flops, want %d", id, got, want)
		}
	}
}

// TestStaggerClosedFormTimed pins when an overlapped [2×2×Pk] plan with
// two rounds of h outer products per slab ends. Staggered, every rank
// holds one panel of each round and receives the other, w = dm·h words:
// round 0's lands α + β·w in, round 1's streams in while round 0 is
// multiplied, and the last round is multiplied inside the fiber
// reduction as in TestFiberReduceOverlapsLastRound. Every rank
// therefore finishes at
//
//	α + β·w + γ·F_round + band + α + (Pk−1)·β·|block|.
//
// In the plain layout rank (1,1) of every layer holds neither panel of
// round 0, so its fiber pays 2·β·w before its first multiply.
func TestStaggerClosedFormTimed(t *testing.T) {
	const m, n, pk, h = 128, 128, 4, 32
	const dm, dn, w, block = m / 2, n / 2, m / 2 * h, m / 2 * n / 2 / pk
	g := grid.Grid{Pm: 2, Pn: 2, Pk: pk}
	pl, err := NewPlan("COSMA", algo.Config{Overlap: true}, g, m, n, pk*2*h, g.Ranks(), dm*dn+2*h*(dm+dn), false)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Overlap || pl.Geometry.Rounds != 2 {
		t.Fatalf("overlap %v, %d rounds: want a pipelined plan of 2 rounds", pl.Overlap, pl.Geometry.Rounds)
	}
	net := machine.NetworkParams{Name: "closed-form", Alpha: 1e-6, Beta: 1e-8, Gamma: 1e-10}
	mach := machine.NewTimed(g.Ranks(), net)
	a, b := matrix.Random(m, pk*2*h, rng(7)), matrix.Random(pk*2*h, n, rng(8))
	got, err := pl.Execute(context.Background(), mach, algo.NewArena(g.Ranks()), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := mulRef(a, b); !matrix.EqualWithin(got, want, 1e-9) {
		t.Fatalf("product off by %g", matrix.MaxDiff(got, want))
	}

	round := net.Gamma * float64(matrix.MulFlops(dm, dn, h))
	band := net.Gamma * float64(matrix.MulFlops(block/dn, dn, h))
	if round < net.Alpha+net.Beta*w || net.Beta*block < band+net.Alpha {
		t.Fatalf("round %g, β·w %g, band %g, β·|block| %g: round 1's panel would not hide behind round 0, or the blocks would not queue back to back",
			round, net.Beta*w, band, net.Beta*block)
	}
	want := net.Alpha + net.Beta*w + round + band + net.Alpha + (pk-1)*net.Beta*block
	if got := mach.MaxTime(); math.Abs(got-want) > 1e-12*want {
		t.Errorf("critical path %.17g s, want %.17g", got, want)
	}
}

func assertBitwiseEqual(t *testing.T, want, got *matrix.Dense, p int) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("p=%d: shape %dx%d vs %dx%d", p, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("p=%d: element %d differs bitwise: %v vs %v", p, i, want.Data[i], got.Data[i])
		}
	}
}
