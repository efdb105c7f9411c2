package matrix

import "fmt"

// MulFlops returns the floating-point operation count of one Mul call on
// an m×k by k×n problem: 2mnk (one multiply and one add per elementary
// product) — the quantity the distributed algorithms register with
// Rank.Compute so the timed transport can charge γ·flops.
func MulFlops(m, n, k int) int64 {
	return 2 * int64(m) * int64(n) * int64(k)
}

// MulNaive computes C += A·B with the textbook triple loop. It exists as
// an independently-written oracle for testing Mul and as the baseline
// the packed kernel's speedup is measured against (Calibrate, the
// benchmark guard and the README performance table all compare to it).
func MulNaive(c, a, b *Dense) {
	checkMulShapes(c, a, b)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var sum float64
			for p := 0; p < a.Cols; p++ {
				sum += a.At(i, p) * b.At(p, j)
			}
			c.Data[i*c.Stride+j] += sum
		}
	}
}

func checkMulShapes(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: Mul shapes C %d×%d, A %d×%d, B %d×%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
