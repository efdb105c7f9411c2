package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"time"

	"cosma"
)

const (
	// wireRuns is how many warm executions the two-process mesh is timed
	// for.
	wireRuns = 10
	// wireEnvJob carries the collective job to the worker process, which
	// must issue exactly the launcher's sequence of executions.
	wireEnvJob = "BENCH_WIRE_JOB"
	// wireTimeout aborts a wire run whose peer went away.
	wireTimeout = time.Minute
)

// wireJob is the sequence both processes of the mesh execute.
type wireJob struct {
	sh   shape
	seed int64
	runs int
}

func (j wireJob) String() string {
	return fmt.Sprintf("%d %d %d %d %d %d %d", j.sh.m, j.sh.n, j.sh.k, j.sh.p, j.sh.s, j.seed, j.runs)
}

func parseWireJob(s string) (j wireJob, err error) {
	_, err = fmt.Sscan(s, &j.sh.m, &j.sh.n, &j.sh.k, &j.sh.p, &j.sh.s, &j.seed, &j.runs)
	return j, err
}

// execAll runs the job on this process's part of the mesh and returns
// each execution's wall time in milliseconds and how many products
// differed from ref (nil on the worker, whose result is empty).
func (j wireJob) execAll(ctx context.Context, tr *tracer, cfg cosma.WireConfig, a, b, ref *cosma.Matrix) (ms []float64, failed int, err error) {
	eng, err := cosma.NewEngine(j.sh.engineOptions(cosma.WithWireTransport(cfg), cosma.WithRecvTimeout(wireTimeout))...)
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	for i := 0; i < j.runs; i++ {
		id := tr.begin(0, 0, "wire Engine.Exec")
		t := time.Now()
		c, _, err := eng.Exec(ctx, a, b)
		ms = append(ms, millis(time.Since(t)))
		tr.end(id)
		if err != nil {
			return nil, 0, err
		}
		if ref != nil && !sameBits(c, ref) {
			failed++
		}
	}
	return ms, failed, nil
}

// wireWorker is the body of the re-executed process: join the mesh the
// environment describes, replay the launcher's job, leave.
func wireWorker(cfg cosma.WireConfig) error {
	j, err := parseWireJob(os.Getenv(wireEnvJob))
	if err != nil {
		return fmt.Errorf("%s: %w", wireEnvJob, err)
	}
	a, b := j.sh.inputs(j.seed)
	_, _, err = j.execAll(context.Background(), nil, cfg, a, b, nil)
	return err
}

// wireLayer times warm executions of the shape with its ranks split
// over two OS processes joined by Unix sockets: this process hosts the
// lower half, one re-execution of this binary the upper half. The
// sockets live in a directory created in (and removed from) the working
// directory, addressed relatively so the path stays short.
func wireLayer(ctx context.Context, tr *tracer, es *engineSide, seed int64, countingMs float64, out measured) (w tally, err error) {
	self, err := os.Executable()
	if err != nil {
		return w, err
	}
	dir, err := os.MkdirTemp(".", ".bench_wire-")
	if err != nil {
		return w, err
	}
	defer os.RemoveAll(dir)
	addrs := cosma.WireSocketAddrs(dir, 2)
	peers := make([]string, es.sh.p)
	for rank := range peers {
		peers[rank] = addrs[rank*2/es.sh.p]
	}
	job := wireJob{sh: es.sh, seed: seed, runs: warmups + wireRuns}

	worker := exec.Command(self)
	worker.Env = append(append(os.Environ(), cosma.WireEnv((es.sh.p+1)/2, peers)...), wireEnvJob+"="+job.String())
	worker.Stderr = os.Stderr
	if err := worker.Start(); err != nil {
		return w, err
	}
	ms, failed, err := job.execAll(ctx, tr, cosma.WireConfig{Rank: 0, Peers: peers}, es.a, es.b, es.ref)
	if err != nil {
		worker.Process.Kill()
	}
	if werr := worker.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("wire worker: %w", werr)
	}
	if err != nil {
		return w, err
	}
	out["wire.exec_p50_ms"] = median(ms[warmups:])
	out["wire.over_counting"] = out["wire.exec_p50_ms"] / countingMs
	return tally{attempted: job.runs, failed: failed}, nil
}
