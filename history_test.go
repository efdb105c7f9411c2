package cosma

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchHistoryHead re-derives the deterministic end-to-end rows of
// `go run ./benchmark` — crit_path_ms and max_recv_words on its three
// engine workloads, the way benchmark/engine.go reports them: one Exec
// on the timed transport under the Piz Daint preset — and requires them
// to equal the last line of BENCH_history.jsonl exactly. A PR that moves
// one of them fails here until it appends a line saying so, so the file
// is the trajectory of the rows that do not depend on the clock. The
// line's go_lines is checked the same way: it must equal the newline
// count of every .go file that is not a _test.go and not under
// benchmark/ — the size the ROADMAP quotes — so the column cannot be
// mis-copied.
func TestBenchHistoryHead(t *testing.T) {
	data, err := os.ReadFile("BENCH_history.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var head struct {
		PR        int `json:"pr"`
		GoLines   int `json:"go_lines"`
		Workloads map[string]struct {
			CritPathMs   float64 `json:"crit_path_ms"`
			MaxRecvWords int64   `json:"max_recv_words"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &head); err != nil {
		t.Fatalf("last line of BENCH_history.jsonl: %v", err)
	}
	goLines := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		goLines += bytes.Count(src, []byte("\n"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if goLines != head.GoLines {
		t.Errorf("non-test Go lines outside benchmark/ = %d, PR %d recorded go_lines %d", goLines, head.PR, head.GoLines)
	}
	if testing.Short() {
		t.Skip("executes two 1024³ and one 128×128×65536 multiplication")
	}
	for _, w := range []struct {
		name          string
		m, n, k, p, s int
	}{
		{"square-roomy", 1024, 1024, 1024, 16, 1 << 20},
		{"square-tight", 1024, 1024, 1024, 16, 69632},
		{"tall-k", 128, 128, 65536, 16, 1 << 18},
	} {
		want, ok := head.Workloads[w.name]
		if !ok {
			t.Errorf("PR %d's line has no %s", head.PR, w.name)
			continue
		}
		eng, err := NewEngine(WithProcs(w.p), WithMemory(w.s), WithNetwork(PizDaintNetwork()))
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := eng.Exec(context.Background(), RandomMatrix(w.m, w.k, 2), RandomMatrix(w.k, w.n, 3))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if got := rep.CritPathTime * 1e3; got != want.CritPathMs {
			t.Errorf("%s: crit_path_ms = %v, PR %d recorded %v", w.name, got, head.PR, want.CritPathMs)
		}
		if rep.MaxRecv != want.MaxRecvWords {
			t.Errorf("%s: max_recv_words = %d, PR %d recorded %d", w.name, rep.MaxRecv, head.PR, want.MaxRecvWords)
		}
	}
}
