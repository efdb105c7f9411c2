package experiments

import (
	"fmt"
	"math"

	"cosma/internal/core"
	"cosma/internal/grid"
	"cosma/internal/report"
	"cosma/internal/workload"
)

// IOLatency regenerates the §6.3 I/O–latency trade-off: for a fixed
// problem, sweeping the local-domain side a between the cubic optimum and
// the memory bound √S trades communication volume Q = 2mnk/(pa) + a²
// against latency L = 2ab/(S−a²) messages.
// The sweep uses a limited-memory configuration (√S < (mnk/p)^(1/3)) and
// walks a from √(S/3) — where L = 2mnk/(p·a(S−a²)) is minimized — up to
// the memory bound √S — where Q is minimized: on that interval growing a
// strictly lowers Q and raises L, which is the trade-off the paper
// resolves in favor of Q ("the I/O cost is vastly greater than the
// latency cost").
func IOLatency() *report.Table {
	m, p, s := 1<<14, 1024, 1<<20
	w := float64(m) * float64(m) * float64(m) / float64(p)
	t := report.NewTable(
		fmt.Sprintf("§6.3 I/O–latency trade-off: m=n=k=%d, p=%d, S=2^20", m, p),
		"a", "b", "Q [words/rank]", "L [messages]")
	aMem := int(math.Sqrt(float64(s)+1)) - 1
	aLat := int(math.Sqrt(float64(s) / 3))
	for _, frac := range []float64{0, 1.0 / 3, 2.0 / 3, 1.0} {
		a := aLat + int(frac*float64(aMem-aLat))
		if a < 1 {
			a = 1
		}
		b := int(math.Ceil(w / float64(a*a)))
		q := 2*float64(a)*float64(b) + float64(a)*float64(a)
		den := s - a*a
		var l float64
		if den <= 0 {
			l = float64(b)
		} else {
			l = math.Ceil(2 * float64(a) * float64(b) / float64(den))
		}
		t.AddRow(a, b, q, l)
	}
	return t
}

// DeltaAblation sweeps the grid-fitting idle tolerance δ (§7.1) over
// unfavorable rank counts, showing how much communication each extra
// percent of allowed idleness removes.
func DeltaAblation() *report.Table {
	n := 8192
	s := workload.MemoryWordsPerCore
	t := report.NewTable(
		"Ablation: grid-fitting idle tolerance δ (square n=8192)",
		"p", "δ", "grid", "ranks used", "words/rank", "vs δ=0")
	for _, p := range []int{65, 1000, 9217} {
		base := -1.0
		for _, delta := range []float64{0, 0.01, 0.03, 0.1} {
			g := grid.Fit(n, n, n, p, s, delta)
			v := g.ModelVolume(n, n, n)
			if base < 0 {
				base = v
			}
			t.AddRow(p, fmt.Sprintf("%.0f%%", delta*100), g.String(), g.Ranks(),
				v, fmt.Sprintf("%.2f", v/base))
		}
	}
	return t
}

// StepAblation sweeps the communication step size (Algorithm 1 line 6)
// around the latency-minimizing s = ⌊(S−a²)/(2a)⌋, showing the §7.3
// trade-off: smaller steps start the compute pipeline earlier (more
// overlappable rounds) at a higher message count.
func StepAblation() *report.Table {
	m, n, k, p := 4096, 4096, 4096, 64
	s := 1 << 21
	g := grid.Fit(m, n, k, p, s, core.DefaultDelta)
	dm, dn, dk := g.LocalDims(m, n, k)
	hOpt := core.StepSize(s, dm, dn)
	t := report.NewTable(
		fmt.Sprintf("Ablation: round step size (grid %s, domain %d×%d×%d, h*=%d)",
			g.String(), dm, dn, dk, hOpt),
		"step h", "rounds t", "words buffered/round", "fits in S")
	for _, factor := range []float64{0.25, 0.5, 1, 2} {
		h := int(float64(hOpt) * factor)
		if h < 1 {
			h = 1
		}
		if h > dk {
			h = dk
		}
		rounds := (dk + h - 1) / h
		buffered := h * (dm + dn)
		t.AddRow(h, rounds, buffered, dm*dn+buffered <= s)
	}
	return t
}
