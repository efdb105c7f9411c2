package cosma

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

// wordsHash fingerprints every word of m's backing storage, the words
// outside a view's window included.
func wordsHash(m *Matrix) uint64 {
	h := fnv.New64a()
	var w [8]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		h.Write(w[:])
	}
	return h.Sum64()
}

// TestExecReadsStridedOperandsInPlace pins the aliasing contract of the
// Algorithm 1 rank program: operands are read where the caller put them.
// Sub-views of larger matrices (Stride > Cols, one stride a power of
// two) give the product of their compact copies bit for bit, and not a
// word of the parents changes.
func TestExecReadsStridedOperandsInPlace(t *testing.T) {
	const m, k, n = 120, 88, 104
	parentA := RandomMatrix(m+5, 128, 31) // power-of-two stride
	parentB := RandomMatrix(k+3, n+7, 32) // odd stride
	a := parentA.View(3, 17, m, k)
	b := parentB.View(2, 5, k, n)
	compactA, compactB := a.Clone(), b.Clone()
	hashA, hashB := wordsHash(parentA), wordsHash(parentB)

	ctx := context.Background()
	for _, algoName := range []string{"cosma", "summa", "2.5d"} {
		for _, timed := range []bool{false, true} {
			for _, overlap := range []bool{false, true} {
				name := fmt.Sprintf("%s/timed=%v/overlap=%v", algoName, timed, overlap)
				opts := []Option{
					WithAlgorithm(algoName), WithProcs(8),
					WithMemory(3 * m * n / 8), WithOverlap(overlap),
				}
				if timed {
					opts = append(opts, WithNetwork(PizDaintNetwork()))
				}
				eng, err := NewEngine(opts...)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := eng.Exec(ctx, compactA, compactB)
				if err != nil {
					t.Fatalf("%s compact: %v", name, err)
				}
				got, _, err := eng.Exec(ctx, a, b)
				if err != nil {
					t.Fatalf("%s views: %v", name, err)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%s: element %d differs bitwise between views and compact copies", name, i)
					}
				}
				if wordsHash(parentA) != hashA || wordsHash(parentB) != hashB {
					t.Fatalf("%s: Exec wrote to an operand", name)
				}
			}
		}
	}
}

// TestVerifyProductRowAndColumnSums exercises both Huang–Abraham checks
// on strided operands: a clean product passes, one wrong word fails its
// row, and a pair of errors that cancel within a row — invisible to the
// row sums — fails its columns.
func TestVerifyProductRowAndColumnSums(t *testing.T) {
	a := RandomMatrix(40, 64, 41).View(1, 3, 37, 53)
	b := RandomMatrix(60, 32, 42).View(2, 1, 53, 29)
	eng, err := NewEngine(WithProcs(4), WithMemory(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProduct(a, b, c); err != nil {
		t.Fatalf("clean product: %v", err)
	}
	c.Set(5, 7, c.At(5, 7)+1e-3)
	if err := VerifyProduct(a, b, c); !errors.Is(err, ErrCorruption) || !strings.Contains(err.Error(), "row 5") {
		t.Fatalf("one wrong word: got %v, want row 5 flagged", err)
	}
	c.Set(5, 11, c.At(5, 11)-1e-3)
	if err := VerifyProduct(a, b, c); !errors.Is(err, ErrCorruption) || !strings.Contains(err.Error(), "column 7") {
		t.Fatalf("errors cancelling in a row: got %v, want column 7 flagged", err)
	}
}
