package experiments

import (
	"fmt"
	"math"

	"cosma/internal/report"
	"cosma/internal/workload"
)

// Table3 regenerates Table 3: the paper's closed-form Q and L of every
// decomposition in the general case and the two special cases. These
// formulas are the paper's analysis, not the plans' models, which count
// the executed schedules.
func Table3() []*report.Table {
	general := report.NewTable(
		"Table 3 (general): per-processor I/O cost Q and latency L — m=n=k=16384, p=1024, S=2^27",
		"algorithm", "Q [words]", "L [msgs]")
	for _, c := range closedForms(workload.Config{M: 16384, N: 16384, K: 16384, P: 1024, S: 1 << 27}) {
		general.AddRow(c.algorithm, c.q, c.l)
	}

	square := report.NewTable(
		"Table 3 (square, limited memory): m=n=k=4096, S=2n²/p, p=64",
		"algorithm", "Q [words]", "Q/(2n²/√p)")
	ref := 2.0 * 4096 * 4096 / 8
	for _, c := range squareLimited(4096, 64) {
		square.AddRow(c.algorithm, c.q, c.q/ref)
	}

	tall := report.NewTable(
		"Table 3 (tall, extra memory): m=n=√p, k=p^1.5/4, p=4096",
		"algorithm", "Q [words]", "Q/p")
	for _, c := range tallExtra(4096) {
		tall.AddRow(c.algorithm, c.q, c.q/4096)
	}
	return []*report.Table{general, square, tall}
}

// closedForm is one algorithm's Table 3 row for specific parameters:
// per-processor I/O cost q in words and latency l in messages on the
// critical path.
type closedForm struct {
	algorithm string
	q, l      float64
}

// table3Inputs returns the Table 3 inputs of c as floats, panicking on an
// invalid configuration.
func table3Inputs(c workload.Config) (m, n, k, p, s float64) {
	if c.M < 1 || c.N < 1 || c.K < 1 || c.P < 1 || c.S < 1 {
		panic(fmt.Sprintf("experiments: invalid Table 3 inputs %v", c))
	}
	return float64(c.M), float64(c.N), float64(c.K), float64(c.P), float64(c.S)
}

// twoD is the 2D (SUMMA/ScaLAPACK) row of Table 3:
//
//	Q = k(m+n)/√p + mn/p,  L = 2k·log₂(√p).
func twoD(c workload.Config) closedForm {
	m, n, k, p, _ := table3Inputs(c)
	sq := math.Sqrt(p)
	return closedForm{"2D", k*(m+n)/sq + m*n/p, 2 * k * math.Log2(math.Max(2, sq))}
}

// twoPointFiveD is the 2.5D (CTF) row of Table 3 with the paper's
// c = pS/(mk+nk) replication factor:
//
//	Q = (k(m+n))^{3/2}/(p√S) + mnS/(k(m+n)),
//	L = (k(m+n))^{5/2}/(pS^{3/2}(km+kn−mn)) + 3·log₂(pS/(mk+nk)).
func twoPointFiveD(c workload.Config) closedForm {
	m, n, k, p, s := table3Inputs(c)
	kmn := k * (m + n)
	q := math.Pow(kmn, 1.5)/(p*math.Sqrt(s)) + m*n*s/kmn
	l := 3 * math.Log2(math.Max(2, p*s/kmn))
	if den := k*m + k*n - m*n; den > 0 {
		l += math.Pow(kmn, 2.5) / (p * math.Pow(s, 1.5) * den)
	}
	return closedForm{"2.5D", q, l}
}

// recursive is the recursive (CARMA) row of Table 3:
//
//	Q = 2·min{√3·mnk/(p√S), (mnk/p)^{2/3}} + (mnk/p)^{2/3},
//	L = 3^{3/2}·mnk/(p·S^{3/2}) + 3·log₂(p).
//
// The min selects the branch that is feasible, not merely the smaller
// value: the cubic branch requires the leaf subproblem's working set
// (≈ 3(mnk/p)^{2/3} words) to fit in S; when it does not, CARMA keeps
// splitting into √(S/3)-sided blocks and pays the √3-factor limited
// branch — the paper's headline comparison against COSMA (§6.2).
func recursive(c workload.Config) closedForm {
	m, n, k, p, s := table3Inputs(c)
	w := m * n * k / p
	cubic := math.Pow(w, 2.0/3.0)
	q := 3 * cubic
	if q > s {
		q = 2*math.Sqrt(3)*w/math.Sqrt(s) + cubic
	}
	l := math.Pow(3, 1.5)*(m*n*k)/(p*math.Pow(s, 1.5)) + 3*math.Log2(math.Max(2, p))
	return closedForm{"recursive", q, l}
}

// cosmaForm is the COSMA row of Table 3 (Eq. 33):
//
//	Q = min{2mnk/(p√S) + S, 3(mnk/p)^{2/3}},
//	L = 2ab/(S−a²) · log₂(mn/a²) with a, b from Eq. 32.
func cosmaForm(c workload.Config) closedForm {
	m, n, k, p, s := table3Inputs(c)
	w := m * n * k / p
	// Attainable branch per Eq. 32: the domain face a² is capped by S;
	// the cubic branch applies only when a cubic domain fits.
	q := 2*w/math.Sqrt(s) + s
	if math.Cbrt(w) <= math.Sqrt(s) {
		q = 3 * math.Pow(w, 2.0/3.0)
	}
	a := math.Min(math.Sqrt(s), math.Cbrt(w))
	b := math.Max(w/s, math.Cbrt(w))
	l := b // one message per outer product
	if den := s - a*a; den > 0 {
		l = math.Ceil(2 * a * b / den)
	}
	if lg := math.Log2(m * n / (a * a)); lg > 1 {
		l *= lg
	}
	return closedForm{"COSMA", q, l}
}

// closedForms evaluates every Table 3 row for c.
func closedForms(c workload.Config) []closedForm {
	return []closedForm{twoD(c), twoPointFiveD(c), recursive(c), cosmaForm(c)}
}

// squareLimited is the paper's first Table 3 special case: square
// matrices m = n = k with S = 2n²/p. In this regime 2D, 2.5D and COSMA
// all reach 2n²(√p+1)/p while the recursive decomposition performs √3/2·…
// more communication.
func squareLimited(n, p int) []closedForm {
	return closedForms(workload.Config{M: n, N: n, K: n, P: p, S: max(1, 2*n*n/p)})
}

// tallExtra is the second special case: m = n = √p, k = p^{3/2}/4 with
// S = 2nk/p^{2/3} — one huge dimension and extra memory, where 2D is
// Θ(√p) and 2.5D Θ(p^{1/3}) away from COSMA and the recursive
// decomposition is ~8% worse.
func tallExtra(p int) []closedForm {
	n := max(1, int(math.Round(math.Sqrt(float64(p)))))
	k := max(1, int(math.Round(math.Pow(float64(p), 1.5)/4)))
	s := max(4, int(math.Round(2*float64(n)*float64(k)/math.Pow(float64(p), 2.0/3.0))))
	return closedForms(workload.Config{M: n, N: n, K: k, P: p, S: s})
}
