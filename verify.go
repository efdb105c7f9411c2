package cosma

import (
	"errors"
	"fmt"
	"math"
)

// ErrCorruption marks a product that failed ABFT checksum
// verification (WithVerification): some payload was silently corrupted
// between the kernels and the gathered result. Match it with errors.Is;
// the retry classifier treats it as transient.
var ErrCorruption = errors.New("cosma: silent data corruption detected (ABFT checksum mismatch)")

// VerifyProduct checks C = A·B with Huang–Abraham algorithm-based
// fault-tolerance checksums: the row sums of C must equal A·(B·e) and
// the column sums must equal (eᵀ·A)·B, where e is the all-ones vector.
// Both identities hold exactly in real arithmetic for any C = A·B, so
// a mismatch beyond floating-point slack means some value of C (or of
// the communicated panels that produced it) was corrupted in flight.
// The check costs O(mn + mk + nk) — asymptotically free next to the
// O(mnk) multiplication — reads A and C once and B twice, always along
// rows, and allocates four k-vectors and three n-vectors.
//
// The tolerance scales with the accumulated magnitudes |A|·|B|, so
// legitimate floating-point reassociation passes while any corruption
// large enough to matter (a flipped exponent bit, a scaled word) is
// caught. Verification of an exactly-correct product never fails.
func VerifyProduct(a, b, c *Matrix) error {
	m, k, n := a.Rows, a.Cols, b.Cols
	if b.Rows != k || c.Rows != m || c.Cols != n {
		return fmt.Errorf("cosma: verify: inconsistent shapes %d×%d · %d×%d = %d×%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	ops := float64(m + n + k)

	// Row checksums: C·e == A·(B·e), with |A|·(|B|·e) as the magnitude
	// bound the tolerance scales from.
	be := make([]float64, k)
	babs := make([]float64, k)
	for l := 0; l < k; l++ {
		row := b.Data[l*b.Stride : l*b.Stride+n]
		var s, sa float64
		for _, v := range row {
			s += v
			sa += math.Abs(v)
		}
		be[l], babs[l] = s, sa
	}
	// The same pass over A gathers its column sums eᵀ·A and eᵀ·|A| for
	// the column check, and the pass over C its column sums.
	ea := make([]float64, k)
	eaabs := make([]float64, k)
	got := make([]float64, n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*a.Stride : i*a.Stride+k]
		var want, bound float64
		for l, v := range arow {
			want += v * be[l]
			bound += math.Abs(v) * babs[l]
			ea[l] += v
			eaabs[l] += math.Abs(v)
		}
		crow := c.Data[i*c.Stride : i*c.Stride+n]
		var sum float64
		for j, v := range crow {
			sum += v
			got[j] += v
		}
		if d := math.Abs(sum - want); d > checksumTol(bound, ops) {
			return fmt.Errorf("%w: row %d checksum off by %g", ErrCorruption, i, d)
		}
	}

	// Column checksums: eᵀ·C == (eᵀ·A)·B, accumulated over the rows of B
	// so every operand is read row-major; each column still sums in
	// ascending l, exactly as a column-at-a-time walk would.
	want := make([]float64, n)
	bound := make([]float64, n)
	for l := 0; l < k; l++ {
		row := b.Data[l*b.Stride : l*b.Stride+n]
		for j, v := range row {
			want[j] += ea[l] * v
			bound[j] += eaabs[l] * math.Abs(v)
		}
	}
	for j := range want {
		if d := math.Abs(got[j] - want[j]); d > checksumTol(bound[j], ops) {
			return fmt.Errorf("%w: column %d checksum off by %g", ErrCorruption, j, d)
		}
	}
	return nil
}

// checksumTol is the floating-point slack allowed on one checksum:
// proportional to the accumulated operand magnitudes and the reduction
// length, with a generous safety factor over the worst-case rounding
// model so blocked/reassociated kernels never trip it.
func checksumTol(bound, ops float64) float64 {
	return 1e-12 * (ops + 1) * (bound + 1)
}
