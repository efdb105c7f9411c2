package comm

import (
	"testing"

	"cosma/internal/machine"
)

// benchBcast broadcasts a 4096-word panel from rank 0 over a binary tree
// b.N times; interior hops recycle buffers once receivers Release them.
func benchBcast(b *testing.B, m *machine.Machine) {
	const words = 4096
	p := m.P()
	ids := make([]int, p)
	for i := range ids {
		ids[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	err := m.Run(func(r *machine.Rank) error {
		g := NewGroup(r, ids)
		var data []float64
		if g.Index() == 0 {
			data = make([]float64, words)
		}
		for i := 0; i < b.N; i++ {
			got := g.Bcast(0, data, 1)
			if g.Index() != 0 {
				machine.Release(got)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBcastP16(b *testing.B) { benchBcast(b, machine.New(16)) }
func BenchmarkBcastP64(b *testing.B) { benchBcast(b, machine.New(64)) }

// benchReduce reduces words-long slices over all of m's ranks b.N times:
// every member's share and the blocks it received return to the pool.
func benchReduce(b *testing.B, m *machine.Machine, words int) {
	p := m.P()
	ids := make([]int, p)
	for i := range ids {
		ids[i] = i
	}
	b.ReportAllocs()
	b.SetBytes(int64(8 * words * (p - 1))) // p members each receive (p−1)/p of a slice
	b.ResetTimer()
	err := m.Run(func(r *machine.Rank) error {
		g := NewGroup(r, ids)
		data := make([]float64, words)
		for i := 0; i < b.N; i++ {
			machine.Release(g.Reduce(0, data, 1))
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkReduceP16(b *testing.B) { benchReduce(b, machine.New(16), 4096) }

// BenchmarkReduceFiber is the reduction at the repo benchmark's two
// fiber shapes: square-roomy's 4 × 512² tiles (65 536-word blocks) and
// tall-k's 15 × 128² (1 092 or 1 093).
func BenchmarkReduceFiber(b *testing.B) {
	b.Run("4x262144", func(b *testing.B) { benchReduce(b, machine.New(4), 262144) })
	b.Run("15x16384", func(b *testing.B) { benchReduce(b, machine.New(15), 16384) })
}
