package baselines

import (
	"context"
	"fmt"
	"math"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

const (
	canTagSkewA = 1 << 20
	canTagSkewB = 2 << 20
	canTagA     = 3 << 20
	canTagB     = 4 << 20
)

// planCannon is Cannon's algorithm on a q×q torus: the original 2D
// decomposition (1969). It requires p to be a perfect square and the
// matrix dimensions to be divisible by q; it exists as the classical
// reference point of Table 3 and Figure 2. The model follows the torus
// schedule: per rank the skew moves one A block for every rank off the
// zeroth row ((q−1)/q of ranks) and one B block off the zeroth column,
// then q−1 shift rounds move one A and one B block each.
func planCannon(_ algo.Config, m, n, k, p, _ int) (*algo.Plan, error) {
	q := int(math.Round(math.Sqrt(float64(p))))
	if q*q != p {
		return nil, fmt.Errorf("baselines: Cannon needs a square p, got %d: %w", p, algo.ErrUnsupportedShape)
	}
	if m%q != 0 || n%q != 0 || k%q != 0 {
		return nil, fmt.Errorf("baselines: Cannon needs q=%d to divide %d×%d×%d: %w", q, m, n, k, algo.ErrUnsupportedShape)
	}
	dm, dk, dn := m/q, k/q, n/q
	aBlk, bBlk := float64(dm*dk), float64(dk*dn)
	shifts := float64(q - 1)
	skewFrac := float64(q-1) / float64(q)
	return &algo.Plan{
		Model: algo.Model{
			Name:     "Cannon-2D",
			Grid:     fmt.Sprintf("[%d×%d×1]", q, q),
			Used:     p,
			AvgRecv:  aBlk*(shifts+skewFrac) + bBlk*(shifts+skewFrac),
			MaxRecv:  (aBlk + bBlk) * (shifts + 1),
			MaxMsgs:  2 * (shifts + 1),
			MaxFlops: 2 * float64(dm) * float64(dn) * float64(k),
		},
		M: m, N: n, K: k, P: p,
		Execute: (&cannonPlan{m: m, n: n, k: k, p: p, q: q}).Execute,
	}, nil
}

// cannonPlan is Cannon's compiled schedule on a q×q torus.
type cannonPlan struct {
	m, n, k, p, q int
}

// Execute is the algo.Plan's Execute.
func (pl *cannonPlan) Execute(ctx context.Context, mach *machine.Machine, scratch *algo.Arena, a, b *matrix.Dense) (*matrix.Dense, error) {
	q := pl.q
	dm, dk, dn := pl.m/q, pl.k/q, pl.n/q
	tiles := make([]*matrix.Dense, pl.p)
	err := mach.RunCtx(ctx, func(r *machine.Rank) error {
		i, j := r.ID()/q, r.ID()%q // row-major torus coordinates
		rank := func(ii, jj int) int { return mod(ii, q)*q + mod(jj, q) }

		// shift passes a block around the torus with zero-copy ownership
		// transfer: the outgoing buffer is dead for this rank the moment
		// it is sent.
		shift := func(dst int, block []float64, src, tag int) []float64 {
			r.SendOwned(dst, tag, block)
			return r.Recv(src, tag)
		}

		// Initial blocks, then the Cannon skew: A(i,j) ← A(i, j+i),
		// B(i,j) ← B(i+j, j).
		myA := a.View(i*dm, j*dk, dm, dk).Pack(machine.Loan(dm * dk))
		myB := b.View(i*dk, j*dn, dk, dn).Pack(machine.Loan(dk * dn))
		if q > 1 && i != 0 {
			myA = shift(rank(i, j-i), myA, rank(i, j+i), canTagSkewA)
		}
		if q > 1 && j != 0 {
			myB = shift(rank(i-j, j), myB, rank(i+j, j), canTagSkewB)
		}

		cTile := scratch.Matrix(r.ID(), dm, dn)
		kern := scratch.Kernel(r.ID())
		for t := 0; t < q; t++ {
			if err := r.Err(); err != nil {
				return err
			}
			kern.Mul(cTile,
				matrix.FromSlice(dm, dk, myA),
				matrix.FromSlice(dk, dn, myB))
			r.Compute(matrix.MulFlops(dm, dn, dk))
			if t == q-1 {
				break
			}
			myA = shift(rank(i, j-1), myA, rank(i, j+1), canTagA+t)
			myB = shift(rank(i-1, j), myB, rank(i+1, j), canTagB+t)
		}
		machine.Release(myA)
		machine.Release(myB)
		tiles[r.ID()] = cTile
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := matrix.New(pl.m, pl.n)
	for id := 0; id < pl.p; id++ {
		i, j := id/q, id%q
		out.View(i*dm, j*dn, dm, dn).CopyFrom(tiles[id])
	}
	return out, nil
}

func mod(x, q int) int { return ((x % q) + q) % q }
