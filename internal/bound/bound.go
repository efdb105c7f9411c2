package bound

import (
	"fmt"
	"math"
)

// SequentialLowerBound returns the Theorem 1 lower bound on the number of
// I/O operations of any pebbling of the m×n×k MMM CDAG with fast memory S:
//
//	Q ≥ 2mnk/√S + mn
func SequentialLowerBound(m, n, k, s int) float64 {
	checkDims(m, n, k)
	checkMem(s)
	return 2*float64(m)*float64(n)*float64(k)/math.Sqrt(float64(s)) + float64(m)*float64(n)
}

// GreedyAttainableIO returns the I/O performed by the feasible greedy
// schedule associated with an X = S partition (§5.2.7): square tiles of
// side √(S+1)−1, giving 2mnk/(√(S+1)−1) + mn operations.
func GreedyAttainableIO(m, n, k, s int) float64 {
	checkDims(m, n, k)
	checkMem(s)
	side := math.Sqrt(float64(s)+1) - 1
	return 2*float64(m)*float64(n)*float64(k)/side + float64(m)*float64(n)
}

// SequentialGap returns the multiplicative gap √S/(√(S+1)−1) between the
// attainable greedy schedule and the Theorem 1 lower bound. It approaches
// 1 quickly: for S = 1.25e6 words (10 MB of float64) it is within 0.1%.
func SequentialGap(s int) float64 {
	checkMem(s)
	sq := math.Sqrt(float64(s))
	return sq / (math.Sqrt(float64(s)+1) - 1)
}

// TileIO returns the I/O of the Listing 1 rectangular-tile schedule with an
// a×b C-tile held in fast memory: each of the ⌈m/a⌉·⌈n/b⌉ tiles performs k
// steps loading a elements of A and b of B, and the mn outputs are stored
// once.
func TileIO(m, n, k, a, b int) float64 {
	checkDims(m, n, k)
	if a <= 0 || b <= 0 {
		panic(fmt.Sprintf("bound: tile %d×%d must be positive", a, b))
	}
	tiles := float64(ceilDiv(m, a)) * float64(ceilDiv(n, b))
	return tiles*float64(k)*float64(a+b) + float64(m)*float64(n)
}

// OptimalTile returns the optimal greedy tile (a_opt, b_opt) for fast
// memory S: the integer maximizer of the computational intensity ab/(a+b)
// subject to ab + a + 1 ≤ S, the feasibility constraint of §5.2.7 when red
// pebbles are parked on the a column elements of A. The real maximizer of
// Eq. 27/28,
//
//	a_opt = ⌊(√((S−1)³) − S + 1)/(S − 2)⌋
//	b_opt = ⌊−(2S + √((S−1)³) − S² − 1)/(√((S−1)³) − S + 1)⌋
//
// is within one unit of the result; we resolve the integer optimum exactly
// by scanning a ∈ [1, √S] with b maximal for each a, which costs O(√S).
// Both results are < √S and approach √S for large S. S must be at least 4.
func OptimalTile(s int) (a, b int) {
	if s < 4 {
		panic(fmt.Sprintf("bound: OptimalTile needs S ≥ 4, got %d", s))
	}
	a, b = 1, 1
	best := -1.0
	for aa := 1; aa*aa <= s; aa++ {
		bb := (s - aa - 1) / aa // largest b with ab + a + 1 ≤ S
		if bb < 1 {
			break
		}
		if rho := float64(aa*bb) / float64(aa+bb); rho > best {
			best, a, b = rho, aa, bb
		}
	}
	return a, b
}

// ParallelLowerBound returns the Theorem 2 lower bound on per-processor
// communication for MMM on p processors with S words of memory each:
//
//	Q ≥ min{ 2mnk/(p√S) + S, 3(mnk/p)^(2/3) }
//
// The first branch is the memory-constrained (Pijk-like) regime, the
// second the cubic (Pcubic-like) regime with ample memory.
//
// As coded the result never depends on S: with w = mnk/p, AM-GM gives
// w/√S + w/√S + S ≥ 3w^(2/3) for every S (equality at √S = w^(1/3)), so
// the minimum is always the cubic branch — 495 421 words/rank at 1024³,
// p = 16 for S = 2²⁰ and S = 69 632 alike. Table 3's COSMA row
// (experiments.Table3), which case-splits on the attainable domain
// (Eq. 32: a = min{√S, w^(1/3)}), gives 578 266 at S = 69 632. ROADMAP item 3(a) owns the fix; it must
// start from that case split, not from this min.
func ParallelLowerBound(m, n, k, p, s int) float64 {
	checkDims(m, n, k)
	checkMem(s)
	checkProcs(p)
	w := float64(m) * float64(n) * float64(k) / float64(p)
	limited := 2*w/math.Sqrt(float64(s)) + float64(s)
	cubic := 3 * math.Pow(w, 2.0/3.0)
	return math.Min(limited, cubic)
}

func ceilDiv(a, b int) int {
	return (a + b - 1) / b
}

func checkDims(m, n, k int) {
	if m <= 0 || n <= 0 || k <= 0 {
		panic(fmt.Sprintf("bound: dimensions %d×%d×%d must be positive", m, n, k))
	}
}

func checkMem(s int) {
	if s <= 0 {
		panic(fmt.Sprintf("bound: memory size %d must be positive", s))
	}
}

func checkProcs(p int) {
	if p <= 0 {
		panic(fmt.Sprintf("bound: processor count %d must be positive", p))
	}
}
