// Command benchmark is the repository's benchmark: four workloads, two
// passes. The untraced pass reports what a user of the system sees — a
// warm Engine.Exec, or bytes through cosmad — and the traced pass times
// every layer from outside, through its exported functions, recording a
// span around each call. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md says how to read them.
//
//	go run ./benchmark -workload square-tight -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -seed 1            # all four, one child process each
//	go run ./benchmark -seed 1 -trace 1   # the per-layer numbers and BENCH_trace.json
//	go run ./benchmark -aa 10             # spread of every end-to-end metric against its bound
//
// A single-workload run prints every metric by name with its unit and,
// as its last line, the JSON object the BENCHMARK.json contract
// prescribes. Every product it times is checked; a failed check is a
// failed operation and a non-zero exit.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"cosma"
)

func main() {
	if cfg, joined, err := cosma.WireFromEnv(); joined {
		if err == nil {
			err = wireWorker(cfg)
		}
		if err != nil {
			fatal(err)
		}
		return
	}
	name := flag.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics, spans written to -trace-out")
	traceOut := flag.String("trace-out", "BENCH_trace.json", "where -trace 1 writes its Chrome trace events")
	aa := flag.Int("aa", 0, "run the untraced pass this many times per workload, a new seed each, and print every spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *aa > 0:
		err = spreads(*aa, *seed, *seconds)
	case *name == "":
		err = runAll(*seed, *seconds, *trace, *traceOut)
	default:
		err = runOne(*name, *seed, *seconds, *trace, *traceOut)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one pass of one workload in this process and prints the
// result: a line per metric, then the contract's JSON object.
func runOne(name string, seed int64, seconds float64, trace int, traceOut string) error {
	w, index, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := pass(context.Background(), w, index, seed, time.Duration(seconds*float64(time.Second)), trace == 1, traceOut)
	if err != nil {
		return err
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their check", name, res.Failed, res.Attempted)
	}
	return nil
}

// pass runs the untraced or the traced pass of w.
func pass(ctx context.Context, w spec, index int, seed int64, dur time.Duration, traced bool, traceOut string) (result, error) {
	var (
		m    measured
		ops  tally
		err  error
		defs = endToEnd
	)
	switch {
	case traced:
		defs = perLayer
		tr := newTracer(w.name, index+1)
		m, ops, err = tracedPass(ctx, w, tr, seed, dur, true)
		if err == nil {
			err = writeTrace(traceOut, tr.events())
		}
	case w.http:
		m, ops, err = httpEndToEnd(ctx, w, seed, dur)
	default:
		m, ops, err = engineEndToEnd(ctx, w.engine, seed, dur)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	metrics, err := m.report(defs)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return result{Correct: ops.failed == 0, Attempted: ops.attempted, Failed: ops.failed, Metrics: metrics}, nil
}

func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Printf("%-34s %14d of %d\n", "failed", res.Failed, res.Attempted)
}

// child runs one workload in a fresh process of this binary, so pools,
// tuning caches and heap do not leak from one workload into the next,
// and returns the JSON object it printed last.
func child(name string, seed int64, seconds float64, trace int, traceOut string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-trace-out", traceOut)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil && err == nil {
		err = fmt.Errorf("%s printed no result: %w", name, jerr)
	}
	if err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// runAll runs every workload, one child process at a time, and prints
// one table: a row per metric, a column per workload.
func runAll(seed int64, seconds float64, trace int, traceOut string) error {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	results := make([]result, len(workloads))
	var events []traceEvent
	for i, w := range workloads {
		part := strings.TrimSuffix(traceOut, ".json") + "." + w.name + ".json"
		res, err := child(w.name, seed, seconds, trace, part)
		if err != nil {
			return err
		}
		results[i] = res
		if trace == 1 {
			evs, err := readTrace(part)
			if err != nil {
				return err
			}
			events = append(events, evs...)
			os.Remove(part)
		}
	}
	fmt.Printf("seed %d, %g s windows\n%-34s %-8s", seed, seconds, "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.name)
	}
	fmt.Println()
	for _, d := range defs {
		fmt.Printf("%-34s %-8s", d.Name, d.Unit)
		for _, res := range results {
			fmt.Printf(" %14.6g", res.Metrics[d.Name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-34s %-8s", "failed of attempted", "count")
	for _, res := range results {
		fmt.Printf(" %14s", fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
	}
	fmt.Println()
	if trace == 1 {
		return writeTrace(traceOut, events)
	}
	return nil
}
