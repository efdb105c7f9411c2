package baselines

import (
	"context"
	"fmt"
	"math"

	"cosma/internal/algo"
	"cosma/internal/layout"
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
// matrix dimensions to be divisible by q; it is the square-torus row of
// the timevolume experiment. Its model counts the torus schedule. The
// skew moves an A block to each of the p−q ranks off the zeroth row and
// a B block to each of the p−q off the zeroth column; then q−1 shift
// rounds move one A and one B block to every rank. So the ranks receive
// (p−q) + p(q−1) = q(p−1) block pairs in all, averaged as an integer
// over p the way core's count does, and the busiest rank (off both the
// zeroth row and column, where q > 1) receives q pairs. Every move is a
// send and a receive, so the busiest rank exchanges 4q messages (none
// on a 1×1 torus).
func planCannon(_ algo.Config, m, n, k, p, _ int) (*algo.Plan, error) {
	q := int(math.Round(math.Sqrt(float64(p))))
	if q*q != p {
		return nil, fmt.Errorf("baselines: Cannon needs a square p, got %d: %w", p, algo.ErrUnsupportedShape)
	}
	if m%q != 0 || n%q != 0 || k%q != 0 {
		return nil, fmt.Errorf("baselines: Cannon needs q=%d to divide %d×%d×%d: %w", q, m, n, k, algo.ErrUnsupportedShape)
	}
	dm, dk, dn := m/q, k/q, n/q
	pair := dm*dk + dk*dn // words in one A and one B block
	return &algo.Plan{
		Model: algo.Model{
			Name:     "Cannon-2D",
			Grid:     fmt.Sprintf("[%d×%d×1]", q, q),
			Used:     p,
			AvgRecv:  float64(q*(p-1)*pair) / float64(p),
			MaxRecv:  float64(q * min(q-1, 1) * pair),
			MaxMsgs:  4 * float64(q*min(q-1, 1)),
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

// Execute is the algo.Plan's Execute. Every rank sums its dm×dn block
// of C in a loaned tile and hands the whole tile to the gather as its
// one share.
func (pl *cannonPlan) Execute(ctx context.Context, mach *machine.Machine, scratch *algo.Arena, a, b *matrix.Dense) (*matrix.Dense, error) {
	q := pl.q
	dm, dk, dn := pl.m/q, pl.k/q, pl.n/q
	out := algo.NewGather(mach, 1, pl.p, func(_, id int) algo.Piece {
		return algo.Piece{Top: id / q * dm, Left: id % q * dn, Width: dn, Words: layout.Range{Hi: dm * dn}}
	})
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

		cTile := matrix.FromSlice(dm, dn, machine.Loan(dm*dn))
		clear(cTile.Data)
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
		out.Put(r, 0, cTile.Data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out.Assemble(pl.m, pl.n), nil
}

func mod(x, q int) int { return ((x % q) + q) % q }
