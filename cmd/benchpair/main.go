// Command benchpair compares the root package's benchmarks between a
// base revision and the working tree as alternating pairs of runs: the
// one way a wall-clock claim is read test-side. It checks the base out
// in a git worktree under a temporary directory, lays the working
// tree's root *_bench_test.go files over it (so both binaries time the
// same benchmark code against their own library), builds both test
// binaries, and runs them one after the other, pairs times, the first
// of each pair alternating. Per benchmark it prints the median and
// interquartile range of ns/op, B/op and allocs/op on both sides, the
// change of the medians, and in how many pairs the working tree's
// value was the lower. It ends with both trees' make bench-layout
// lines. It is what make bench-pair runs:
//
//	go run ./cmd/benchpair <base-rev> <bench-regexp> <pairs>
//	make bench-pair BASE=HEAD~1 BENCH=EngineExec PAIRS=10
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchpair: ")
	if len(os.Args) != 4 {
		log.Fatal("usage: benchpair <base-rev> <bench-regexp> <pairs>")
	}
	pairs, err := strconv.Atoi(os.Args[3])
	if err != nil || pairs < 1 {
		log.Fatalf("pairs = %q: want a positive count", os.Args[3])
	}
	if err := run(os.Args[1], os.Args[2], pairs); err != nil {
		log.Fatal(err)
	}
}

// side is one of the two test binaries and what its runs measured:
// values[benchmark][metric] holds one number per run.
type side struct {
	name, dir, bin string
	values         map[string]map[string][]float64
}

// metrics are the columns benchpair compares; lower is better in each.
var metrics = []string{"ns/op", "B/op", "allocs/op"}

func run(base, bench string, pairs int) error {
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tree := filepath.Join(tmp, "base")
	if err := command("", "git", "worktree", "add", "--quiet", "--detach", tree, base); err != nil {
		return err
	}
	defer command("", "git", "worktree", "remove", "--force", tree)
	overlays, err := filepath.Glob("*_bench_test.go")
	if err != nil {
		return err
	}
	for _, f := range overlays {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(tree, f), data, 0o644); err != nil {
			return err
		}
	}
	sides := []*side{{name: "base " + base, dir: tree}, {name: "change", dir: "."}}
	for i, s := range sides {
		s.bin = filepath.Join(tmp, fmt.Sprintf("side%d.test", i))
		s.values = map[string]map[string][]float64{}
		if err := command(s.dir, "go", "test", "-c", "-o", s.bin, "."); err != nil {
			return fmt.Errorf("building %s: %w", s.name, err)
		}
	}
	for p := 0; p < pairs; p++ {
		for i := range sides {
			s := sides[(p+i)%2]
			if err := s.bench(bench); err != nil {
				return fmt.Errorf("pair %d, %s: %w", p+1, s.name, err)
			}
		}
		fmt.Fprintf(os.Stderr, "benchpair: pair %d of %d done\n", p+1, pairs)
	}
	report(sides[0], sides[1], pairs)
	for _, s := range sides {
		out, err := exec.Command("make", "-s", "-C", s.dir, "bench-layout").CombinedOutput()
		if err != nil {
			return fmt.Errorf("make bench-layout in %s: %v\n%s", s.name, err, out)
		}
		fmt.Printf("%-8s %s", strings.Fields(s.name)[0]+":", out)
	}
	return nil
}

// bench runs the side's binary once and appends every benchmark line's
// metrics to its values.
func (s *side) bench(regexp string) error {
	cmd := exec.Command(s.bin, "-test.run", "^$", "-test.bench", regexp, "-test.benchmem", "-test.count", "1")
	cmd.Dir, cmd.Stderr = s.dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%v\n%s", err, out)
	}
	suffix := ""
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		suffix = fmt.Sprintf("-%d", procs)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimSuffix(strings.TrimPrefix(f[0], "Benchmark"), suffix)
		if s.values[name] == nil {
			s.values[name] = map[string][]float64{}
		}
		for i := 2; i+1 < len(f); i += 2 {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil && slices.Contains(metrics, f[i+1]) {
				s.values[name][f[i+1]] = append(s.values[name][f[i+1]], v)
			}
		}
	}
	return sc.Err()
}

// report prints one row per benchmark and metric that both sides
// measured in every pair.
func report(base, change *side, pairs int) {
	var names []string
	for name := range change.values {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Printf("%d pairs; %s against the working tree; wins: pairs in which the change's value is lower\n", pairs, base.name)
	fmt.Printf("%-32s %-10s %14s %12s %14s %12s %9s %6s\n",
		"benchmark", "metric", "base median", "base IQR", "change median", "change IQR", "Δ median", "wins")
	for _, name := range names {
		for _, m := range metrics {
			b, c := base.values[name][m], change.values[name][m]
			if len(b) != pairs || len(c) != pairs {
				continue
			}
			wins := 0
			for i := range c {
				if c[i] < b[i] {
					wins++
				}
			}
			bm, bq := medianIQR(b)
			cm, cq := medianIQR(c)
			delta := "—"
			if bm != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cm-bm)/bm)
			}
			fmt.Printf("%-32s %-10s %14.6g %12.4g %14.6g %12.4g %9s %3d/%d\n",
				name, m, bm, bq, cm, cq, delta, wins, pairs)
		}
	}
}

// medianIQR returns the median and the interquartile range of xs, each
// quartile interpolated linearly between the order statistics.
func medianIQR(xs []float64) (median, iqr float64) {
	s := slices.Sorted(slices.Values(xs))
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return q(0.5), q(0.75) - q(0.25)
}

// command runs name with args in dir, its output on stderr.
func command(dir, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
	return cmd.Run()
}
