package workload

import (
	"math"
	"reflect"
	"testing"
)

// Same seed ⇒ same catalog, draw for draw; different seed ⇒ different.
// The literal is the benchmark's serve-mix catalog: its 12 shapes are
// part of that workload's definition, so the draws must never move.
func TestGeneratorSeededDeterminism(t *testing.T) {
	cfg := GenConfig{Seed: 1, Shapes: 12, ZipfS: 1.1, MinDim: 32, MaxDim: 192}
	want := []Dims{
		{118, 118, 118}, {38, 38, 190}, {174, 47, 47}, {136, 136, 63},
		{43, 43, 43}, {35, 35, 125}, {74, 32, 32}, {102, 102, 43},
		{101, 101, 101}, {42, 42, 162}, {96, 37, 37}, {122, 122, 43},
	}
	if got := NewGenerator(cfg).Catalog(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seeded catalog moved:\n got %v\nwant %v", got, want)
	}
	cfg.Seed = 2
	if reflect.DeepEqual(NewGenerator(cfg).Catalog(), want) {
		t.Fatal("different seeds produced identical catalogs")
	}
}

// Lemire bounded sampling must be uniform: a chi-squared test over a
// bound that does NOT divide 2³² (the case where naive modulo biases).
func TestUint32nUnbiased(t *testing.T) {
	const n, draws = 10, 200000
	rng := NewRNG(7)
	var counts [n]int
	for i := 0; i < draws; i++ {
		v := rng.Uint32n(n)
		if v >= n {
			t.Fatalf("Uint32n(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 degrees of freedom: P(chi2 > 27.9) ≈ 0.001. A biased modulo
	// draw at this sample size lands in the thousands.
	if chi2 > 27.9 {
		t.Fatalf("Uint32n distribution chi² = %.1f (df=9), counts %v", chi2, counts)
	}
}

// TestIntnCoversItsDocumentedRange: Intn accepts every n in (0, 2³²].
// At n = 2³² a draw is one 32-bit value of the stream; below it Intn is
// Uint32n's draw, unchanged; outside the range it panics.
func TestIntnCoversItsDocumentedRange(t *testing.T) {
	rng, twin := NewRNG(3), NewRNG(3)
	for i := 0; i < 100; i++ {
		if got, want := rng.Intn(1<<32), int(uint32(twin.Uint64())); got != want {
			t.Fatalf("draw %d: Intn(2³²) = %d, want the stream's 32 bits %d", i, got, want)
		}
	}
	for _, n := range []int{2, 10, 1<<32 - 1} {
		if got, want := rng.Intn(n), int(twin.Uint32n(uint32(n))); got != want {
			t.Fatalf("Intn(%d) = %d, Uint32n draws %d", n, got, want)
		}
	}
	for _, n := range []int{0, 1<<32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			rng.Intn(n)
		}()
	}
}

// Empirical Zipf frequencies must track the analytic probabilities.
func TestZipfEmpiricalFrequencies(t *testing.T) {
	const n, draws = 16, 100000
	z := NewZipf(n, 1.1)
	rng := NewRNG(99)
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[z.Sample(rng)]++
	}
	for i := 0; i < n; i++ {
		want := z.P(i)
		got := float64(counts[i]) / draws
		if math.Abs(got-want) > 0.02+0.15*want {
			t.Fatalf("rank %d: empirical %.4f vs analytic %.4f", i, got, want)
		}
	}
	// Rank 0 must dominate the tail — the property that stresses an LRU.
	if counts[0] <= counts[n-1]*3 {
		t.Fatalf("Zipf head %d not dominating tail %d", counts[0], counts[n-1])
	}
}

// The catalog honours its bounds and interleaves the four §8 aspect
// classes across popularity ranks.
func TestGeneratorDefaults(t *testing.T) {
	if n := len(NewGenerator(GenConfig{}).Catalog()); n != 16 {
		t.Fatalf("default catalog size %d", n)
	}
	cat := NewGenerator(GenConfig{Seed: 1, Shapes: 8, MinDim: 16, MaxDim: 128}).Catalog()
	if len(cat) != 8 {
		t.Fatalf("catalog size %d", len(cat))
	}
	for i, d := range cat {
		if d.M < 16 || d.N < 16 || d.K < 16 || d.M > 128 || d.N > 128 || d.K > 128 {
			t.Fatalf("catalog[%d] = %v outside [16,128]", i, d)
		}
	}
	if d := cat[0]; d.M != d.N || d.N != d.K {
		t.Fatalf("catalog[0] = %v is not square", d)
	}
	if d := cat[1]; d.M != d.N || d.K < d.M {
		t.Fatalf("catalog[1] = %v is not inner-product-shaped (m=n≤k)", d)
	}
	if d := cat[2]; d.N != d.K || d.M < d.N {
		t.Fatalf("catalog[2] = %v is not tall-skinny (m≥n=k)", d)
	}
	if d := cat[3]; d.M != d.N || d.K > d.M {
		t.Fatalf("catalog[3] = %v is not flat (m=n≥k)", d)
	}
}
