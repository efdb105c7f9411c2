package cosma

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/checksums.golden for this build's rounding (fused or unfused)")

// raceEnabled is set by race_test.go under -race, which skips the 1024³
// rows of TestChecksumsGolden.
var raceEnabled bool

// TestChecksumsGolden pins the product bits of every schedule that runs
// them: the lines `go run ./cmd/cosma <flags> -checksum` prints — an
// FNV-64a digest of the result bytes, seed 1 inputs, counting transport
// — for the benchmark's three engine shapes, a ragged prime-p shape and
// a C tile smaller than its fiber, each with overlap on and off. A
// schedule change may move words and times, never these. The digests
// depend on the register tile only through its rounding — a fused tile
// rounds once per multiply-add, an unfused one twice; kc is a package
// constant, and shape and blocking do not move a bit — so each line
// starts with "fused" or "unfused" and a build checks the lines of its
// own tile's rounding, which must exist. Regenerate one key's lines with
//
//	go test -run TestChecksumsGolden -update .
//	go test -tags noasm -run TestChecksumsGolden -update .
func TestChecksumsGolden(t *testing.T) {
	const path = "testdata/checksums.golden"
	key := "unfused"
	if Calibrate(8, 1).Fused {
		key = "fused"
	}
	type run struct {
		m, n, k, p, s int
		algos         []string // nil: -algo all
	}
	runs := []run{
		{1024, 1024, 1024, 16, 1 << 20, nil},
		{1024, 1024, 1024, 16, 69632, nil},
		{128, 128, 65536, 16, 262144, []string{"cosma"}},
		{97, 61, 203, 13, 1 << 20, []string{"cosma", "2.5d"}},
		{1, 2, 64, 8, 1 << 20, []string{"cosma"}},
	}
	if raceEnabled && *update {
		t.Fatal("-update under -race would drop the 1024³ rows")
	}
	var got []string
	skipped := map[string]bool{}
	for _, c := range runs {
		for _, overlap := range []bool{true, false} {
			algos, all := c.algos, c.algos == nil
			if all {
				algos = Algorithms()
			}
			for _, name := range algos {
				algoFlag := name
				if all {
					algoFlag = "all"
				}
				flags := fmt.Sprintf("-m %d -n %d -k %d -p %d -S %d -algo %s -overlap=%v", c.m, c.n, c.k, c.p, c.s, algoFlag, overlap)
				if raceEnabled && c.k == 1024 {
					skipped[flags] = true
					continue
				}
				eng, err := NewEngine(WithProcs(c.p), WithMemory(c.s), WithOverlap(overlap), WithAlgorithm(name))
				if err != nil {
					t.Fatal(err)
				}
				out, rep, err := eng.Exec(context.Background(), RandomMatrix(c.m, c.k, 1), RandomMatrix(c.k, c.n, 2))
				if errors.Is(err, ErrUnsupportedShape) {
					continue // cmd/cosma skips the row
				} else if err != nil {
					t.Fatalf("%s: %v", flags, err)
				}
				got = append(got, fmt.Sprintf("%s %s: %s checksum %016x", key, flags, rep.Model.Name, digest(out)))
			}
		}
	}

	data, err := os.ReadFile(path)
	if err != nil && !(*update && errors.Is(err, os.ErrNotExist)) {
		t.Fatal(err)
	}
	var kept, want []string // the other key's lines; this key's
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		lineKey, rest, _ := strings.Cut(line, " ")
		flags, _, _ := strings.Cut(rest, ":")
		switch {
		case line == "":
		case lineKey != key:
			kept = append(kept, line)
		case !skipped[flags]:
			want = append(want, line)
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(append(kept, got...), "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(want) == 0 {
		t.Fatalf("%s has no %s lines; add them with -update", path, key)
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d of the %s lines:\n got  %q\n want %q", i+1, key, g, w)
		}
	}
}

// digest is cmd/cosma's -checksum: FNV-64a over the little-endian bytes
// of the result, row by row.
func digest(c *Matrix) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < c.Rows; i++ {
		for _, v := range c.Data[i*c.Stride : i*c.Stride+c.Cols] {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
