package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {19, 0.5}, {39, 0.5}, {40, 0.75}, {99, 0.75}, {100, 0.9},
		{199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	if v, pct := tail(xs); pct != 95 || v < 188 || v > 190 {
		t.Errorf("tail of 0..199 = %v at p%v, want about 189 at p95", v, pct)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

// The BENCHMARK.json contract's rules for names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"p50_ms": true, "matrix.kernel_ms": true, "square-roomy": true, "2.5d": true,
		"": false, ".hidden": false, "has space": false, "ünicode": false, "a/b": false,
		"x123456789012345678901234567890123456789012345678901234567890123":  true,
		"x1234567890123456789012345678901234567890123456789012345678901234": false,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, want %v", name, got, want)
		}
	}
}

// benchmarkJSON is BENCHMARK.json with exactly the contract's keys.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the tables the
// benchmark reports from in step, and both inside the contract's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(buf) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(buf))
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside 1..60", bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}

	seen := map[string]bool{}
	unique := func(kind, name string) {
		if !validName(name) {
			t.Errorf("%s name %q is not valid", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(bj.Workloads); n != len(workloads) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code, limit 2..8", n, len(workloads))
	}
	for i, w := range bj.Workloads {
		unique("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q in BENCHMARK.json but %q in code (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}

	if n := len(bj.EndToEnd); n != len(endToEnd) || n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code, limit 1..16", n, len(endToEnd))
	}
	setup := false
	for i, m := range bj.EndToEnd {
		unique("metric", m.Name)
		d := endToEnd[i]
		if m.Bound == nil || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || !validUnit(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %s breaks the contract: %+v", d.Name, d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}

	if n := len(bj.PerLayer); n != len(perLayer) || n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code, limit 1..128", n, len(perLayer))
	}
	for i, m := range bj.PerLayer {
		unique("metric", m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, m, d)
		}
		if !validUnit(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %s breaks the contract: %+v", d.Name, d)
		}
	}
}

// tiny shrinks a workload so both passes finish in a fraction of a
// second while keeping what makes it that workload: the grid of the
// engine shape and a mix of several shapes on the serving side.
func tiny(w spec) spec {
	mix := serveMix{catalogSeed: 1, shapes: 4, zipfS: 1.1, minDim: 8, maxDim: 24, procs: 4, shards: 2, clients: 2}
	w.mix = mix
	switch w.name {
	case "square-roomy":
		w.engine = shape{64, 64, 64, 16, 1 << 12} // grid 2×2×4
	case "square-tight":
		w.engine = shape{64, 64, 64, 16, 16*16 + 2*32} // grid 4×4×1, 32 rounds of 2
	case "tall-k":
		w.engine = shape{16, 16, 2048, 16, 1 << 10} // grid 1×1×16
	default:
		w.engine = mix.shapeOf(mix.catalog()[0])
	}
	return w
}

// TestSmoke runs both passes of all four workloads, shrunk, in this
// process (the wire layer's child process left out): every declared
// metric must be measured and finite, every product correct, and the two
// metrics that come from logical clocks and counters must repeat.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	const dur = 20 * time.Millisecond
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			var runs [2]measured
			for i := range runs {
				var ops tally
				var err error
				if w.http {
					runs[i], ops, err = httpEndToEnd(ctx, w, int64(i+1), dur)
				} else {
					runs[i], ops, err = engineEndToEnd(ctx, w.engine, int64(i+1), dur)
				}
				if err != nil {
					t.Fatal(err)
				}
				if ops.attempted < 1 || ops.failed != 0 {
					t.Fatalf("%d of %d operations failed", ops.failed, ops.attempted)
				}
				if _, err := runs[i].report(endToEnd); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range []string{"crit_path_ms", "max_recv_words"} {
				if runs[0][name] != runs[1][name] || runs[0][name] <= 0 {
					t.Errorf("%s = %v then %v, want equal and positive", name, runs[0][name], runs[1][name])
				}
			}

			tr := newTracer(w.name, 1)
			m, ops, err := tracedPass(ctx, w, tr, 1, dur, false)
			if err != nil {
				t.Fatal(err)
			}
			if ops.attempted < 1 || ops.failed != 0 {
				t.Fatalf("traced: %d of %d operations failed", ops.failed, ops.attempted)
			}
			if _, err := m.report(perLayer); err != nil {
				t.Fatal(err)
			}
			if sum, top := m["serve.net_ms"]+m["serve.codec_ms"]+m["serve.queue_window_ms"]+m["serve.exec_p50_ms"], m["serve.http_p50_ms"]; sum < 0.9*top || sum > 1.1*top {
				t.Errorf("serving ladder self times sum to %v ms, single-caller HTTP p50 is %v ms", sum, top)
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeTrace(path, tr.events()); err != nil {
				t.Fatal(err)
			}
			evs, err := readTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) == 0 {
				t.Fatal("traced pass recorded no spans")
			}
			for _, ev := range evs {
				if ev.Ph != "X" || ev.Dur < 0 || ev.Name == "" {
					t.Fatalf("bad trace event %+v", ev)
				}
			}
		})
	}
}
