package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a dense row-major matrix, possibly a view into a larger one.
// Element (i, j) lives at Data[i*Stride+j]. A Dense with Stride == Cols
// owns a contiguous block; views share backing storage with their parent.
type Dense struct {
	Rows   int
	Cols   int
	Stride int
	Data   []float64
}

// New returns a zeroed r×c matrix with contiguous storage.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %d×%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data as an r×c matrix. The slice is used directly, not
// copied; len(data) must be exactly r*c.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("matrix: FromSlice got %d elements for %d×%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: data}
}

// Random returns an r×c matrix with entries drawn uniformly from [-1, 1)
// using rng, so tests and experiments are reproducible from a seed.
func Random(r, c int, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Stride+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of range %d×%d", i, j, m.Rows, m.Cols))
	}
}

// View returns an r×c submatrix starting at (i, j) sharing storage with m.
// It inlines, so a view that its caller does not let escape is not
// allocated.
func (m *Dense) View(i, j, r, c int) *Dense {
	v := m.view(i, j, r, c)
	return &v
}

func (m *Dense) view(i, j, r, c int) Dense {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("matrix: view (%d,%d)+%d×%d out of range %d×%d", i, j, r, c, m.Rows, m.Cols))
	}
	if r == 0 || c == 0 {
		return Dense{Rows: r, Cols: c, Stride: m.Stride}
	}
	start := i*m.Stride + j
	end := (i+r-1)*m.Stride + j + c
	return Dense{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[start:end]}
}

// Clone returns a contiguous deep copy of m.
func (m *Dense) Clone() *Dense {
	out := New(m.Rows, m.Cols)
	if m.Rows == 0 || m.Cols == 0 {
		return out
	}
	for i := 0; i < m.Rows; i++ {
		copy(out.Data[i*out.Stride:i*out.Stride+m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: CopyFrom %d×%d into %d×%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	if m.Rows == 0 || m.Cols == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], src.Data[i*src.Stride:i*src.Stride+m.Cols])
	}
}

// Zero sets every element of m to zero.
func (m *Dense) Zero() {
	if m.Cols == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	if m.Cols == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		for j := range row {
			row[j] = v
		}
	}
}

// Add accumulates src into m element-wise; dimensions must match.
func (m *Dense) Add(src *Dense) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: Add %d×%d into %d×%d", src.Rows, src.Cols, m.Rows, m.Cols))
	}
	if m.Rows == 0 || m.Cols == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		dst := m.Data[i*m.Stride : i*m.Stride+m.Cols]
		s := src.Data[i*src.Stride : i*src.Stride+m.Cols]
		for j := range dst {
			dst[j] += s[j]
		}
	}
}

// MaxDiff returns the largest absolute element-wise difference between a
// and b. It panics if the shapes differ.
func MaxDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MaxDiff %d×%d vs %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	if a.Rows == 0 || a.Cols == 0 {
		return 0
	}
	for i := 0; i < a.Rows; i++ {
		ra := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		rb := b.Data[i*b.Stride : i*b.Stride+a.Cols]
		for j := range ra {
			if d := math.Abs(ra[j] - rb[j]); d > max {
				max = d
			}
		}
	}
	return max
}

// EqualWithin reports whether all elements of a and b differ by at most tol.
func EqualWithin(a, b *Dense, tol float64) bool {
	return MaxDiff(a, b) <= tol
}

// Pack copies m row by row into a contiguous slice of length Rows*Cols.
func (m *Dense) Pack(dst []float64) []float64 {
	n := m.Rows * m.Cols
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	for i := 0; i < m.Rows; i++ {
		copy(dst[i*m.Cols:(i+1)*m.Cols], m.Data[i*m.Stride:i*m.Stride+m.Cols])
	}
	return dst
}

// String renders small matrices for debugging; large ones are summarized.
func (m *Dense) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Dense{%d×%d}", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%8.3f ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}
