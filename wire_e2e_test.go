package cosma_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"cosma"
)

// The multi-process tests below re-execute this test binary once per
// extra OS process, so a genuinely distributed run — every message
// crossing a real socket — can be asserted bitwise-identical to the
// in-process counting backend. The worker body is TestWireRankHelper;
// these constants keep launcher and workers on the same problem.
const (
	e2eDim  = 256
	e2eSeed = 7
	e2eMem  = 1 << 20
	// e2eModeEnv selects the worker's behavior: "run" executes the
	// multiplication, "die" joins the mesh and exits abruptly mid-run,
	// "retry" executes with a WithRetry policy so a lost peer is
	// survived by Recover-and-re-run rather than reported.
	e2eModeEnv = "WIRE_TEST_MODE"
	e2eAlgoEnv = "WIRE_TEST_ALGO"
)

// TestWireRankHelper is not a test of its own: it is the worker body
// the wire e2e tests re-execute. Without the bootstrap handshake in
// the environment it skips immediately.
func TestWireRankHelper(t *testing.T) {
	cfg, ok, err := cosma.WireFromEnv()
	if !ok {
		t.Skip("not a wire worker process")
	}
	if err != nil {
		t.Fatal(err)
	}
	opts := []cosma.Option{
		cosma.WithProcs(len(cfg.Peers)), cosma.WithMemory(e2eMem),
		cosma.WithAlgorithm(os.Getenv(e2eAlgoEnv)),
		cosma.WithWireTransport(cfg), cosma.WithRecvTimeout(time.Minute),
	}
	if os.Getenv(e2eModeEnv) == "retry" {
		opts = append(opts, cosma.WithRetry(cosma.RetryPolicy{MaxAttempts: 3}))
	}
	eng, err := cosma.NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if os.Getenv(e2eModeEnv) == "die" {
		// Simulate a crashed peer: the mesh is up and the launcher's run
		// has started; exit without the goodbye handshake so survivors
		// see a lost connection. os.Exit skips the deferred Close.
		time.Sleep(100 * time.Millisecond)
		os.Exit(3)
	}

	a := cosma.RandomMatrix(e2eDim, e2eDim, e2eSeed)
	b := cosma.RandomMatrix(e2eDim, e2eDim, e2eSeed+1)
	if _, _, err := eng.Exec(context.Background(), a, b); err != nil {
		t.Fatalf("worker rank %d: %v", cfg.Rank, err)
	}
}

// spawnWorker re-executes the test binary as the wire worker hosting
// rank, returning the running command and its combined output buffer.
func spawnWorker(t *testing.T, rank int, peers []string, algo, mode string) (*exec.Cmd, *bytes.Buffer) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWireRankHelper$")
	cmd.Env = append(os.Environ(), cosma.WireEnv(rank, peers)...)
	cmd.Env = append(cmd.Env, e2eAlgoEnv+"="+algo, e2eModeEnv+"="+mode)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawning worker rank %d: %v", rank, err)
	}
	return cmd, &out
}

// TestWireMultiProcessBitwise runs a 256³ multiplication over four OS
// processes connected by Unix sockets and asserts the product is
// bitwise-identical to the same engine configuration on the in-process
// counting backend — the paper's schedule is deterministic, so the
// transport must not change a single bit.
func TestWireMultiProcessBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	for _, algo := range []string{"cosma", "summa", "2.5d"} {
		t.Run(algo, func(t *testing.T) {
			const p = 4
			peers := cosma.WireSocketAddrs(t.TempDir(), p)
			type worker struct {
				cmd *exec.Cmd
				out *bytes.Buffer
			}
			var workers []worker
			for rank := 1; rank < p; rank++ {
				cmd, out := spawnWorker(t, rank, peers, algo, "run")
				workers = append(workers, worker{cmd, out})
			}

			eng, err := cosma.NewEngine(
				cosma.WithProcs(p), cosma.WithMemory(e2eMem), cosma.WithAlgorithm(algo),
				cosma.WithWireTransport(cosma.WireConfig{Rank: 0, Peers: peers}),
				cosma.WithRecvTimeout(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()

			a := cosma.RandomMatrix(e2eDim, e2eDim, e2eSeed)
			b := cosma.RandomMatrix(e2eDim, e2eDim, e2eSeed+1)
			got, rep, err := eng.Exec(context.Background(), a, b)
			if err != nil {
				t.Fatalf("wire exec: %v", err)
			}
			for i, w := range workers {
				if err := w.cmd.Wait(); err != nil {
					t.Fatalf("worker %d: %v\n%s", i+1, err, w.out)
				}
			}
			if rep.MaxRecv == 0 {
				t.Fatal("report shows no traffic: counters were not merged across processes")
			}

			inproc, err := cosma.NewEngine(cosma.WithProcs(p), cosma.WithMemory(e2eMem), cosma.WithAlgorithm(algo))
			if err != nil {
				t.Fatal(err)
			}
			want, wantRep, err := inproc.Exec(context.Background(), a, b)
			if err != nil {
				t.Fatalf("in-process exec: %v", err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("word %d: wire %v != in-process %v (bitwise mismatch)", i, got.Data[i], want.Data[i])
				}
			}
			// The wire report includes the result gather (every rank ships
			// its share of C to rank 0 — traffic the in-process machine
			// never needs), so rank 0's measured receive volume exceeds
			// the algorithm's by exactly that much, never less.
			if got, want := rep.MaxRecv, wantRep.MaxRecv; got < want {
				t.Errorf("max recv over the wire = %d words, in-process = %d; the wire run under-counted", got, want)
			}
		})
	}
}

// TestWireKilledPeerAbortsRun kills one worker process mid-run and
// asserts the launcher's run fails promptly — connection loss, not the
// minute-long receive deadline, must unwind it.
func TestWireKilledPeerAbortsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const p = 4
	peers := cosma.WireSocketAddrs(t.TempDir(), p)
	var cmds []*exec.Cmd
	for rank := 1; rank < p; rank++ {
		mode := "run"
		if rank == p-1 {
			mode = "die" // this worker exits abruptly once the mesh is up
		}
		cmd, _ := spawnWorker(t, rank, peers, "cosma", mode)
		cmds = append(cmds, cmd)
	}
	eng, err := cosma.NewEngine(
		cosma.WithProcs(p), cosma.WithMemory(e2eMem), cosma.WithAlgorithm("cosma"),
		cosma.WithWireTransport(cosma.WireConfig{Rank: 0, Peers: peers}),
		cosma.WithRecvTimeout(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	a := cosma.RandomMatrix(e2eDim, e2eDim, e2eSeed)
	b := cosma.RandomMatrix(e2eDim, e2eDim, e2eSeed+1)
	start := time.Now()
	_, _, err = eng.Exec(context.Background(), a, b)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("run survived a killed peer process")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("failure took %v; the connection loss should abort the run promptly", elapsed)
	}
	for _, cmd := range cmds {
		cmd.Wait() // survivors fail too (aborted run) — only reap them
	}
	t.Logf("killed peer unwound the run in %v: %v", elapsed, err)
}

// TestWireKilledPeerRecoversAndRetries is the end-to-end fault-tolerance
// path: one of four worker processes dies mid-run; the launcher's
// WithRetry loop recovers the mesh — re-execing the dead worker through
// the Respawn hook and rebuilding only the lost connections — and
// re-runs; the surviving workers' own retry loops do the same from
// their side. The retried product must be bitwise-identical to the
// fault-free in-process run, within 3 attempts.
func TestWireKilledPeerRecoversAndRetries(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	const p = 4
	peers := cosma.WireSocketAddrs(t.TempDir(), p)

	type worker struct {
		cmd *exec.Cmd
		out *bytes.Buffer
	}
	var mu sync.Mutex
	var survivors, respawned []worker
	for rank := 1; rank < p; rank++ {
		mode := "retry"
		if rank == p-1 {
			mode = "die" // joins the mesh, then exits without a goodbye
		}
		cmd, out := spawnWorker(t, rank, peers, "cosma", mode)
		if mode == "retry" {
			survivors = append(survivors, worker{cmd, out})
		}
	}

	eng, err := cosma.NewEngine(
		cosma.WithProcs(p), cosma.WithMemory(e2eMem), cosma.WithAlgorithm("cosma"),
		cosma.WithWireTransport(cosma.WireConfig{
			Rank: 0, Peers: peers,
			Respawn: func(proc int, addr string) error {
				// The dead worker comes back in plain "run" mode: its one
				// execution is the survivors' retry attempt.
				cmd, out := spawnWorker(t, proc, peers, "cosma", "run")
				mu.Lock()
				respawned = append(respawned, worker{cmd, out})
				mu.Unlock()
				return nil
			},
		}),
		cosma.WithRecvTimeout(time.Minute),
		cosma.WithRetry(cosma.RetryPolicy{MaxAttempts: 3}),
		cosma.WithVerification(true))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	a := cosma.RandomMatrix(e2eDim, e2eDim, e2eSeed)
	b := cosma.RandomMatrix(e2eDim, e2eDim, e2eSeed+1)
	got, rep, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatalf("retried wire exec did not recover: %v", err)
	}
	if rep.Attempts < 2 || rep.Attempts > 3 {
		t.Fatalf("attempts = %d, want 2 or 3 (one fault, bounded retries)", rep.Attempts)
	}
	for i, w := range survivors {
		if err := w.cmd.Wait(); err != nil {
			t.Fatalf("surviving worker %d did not recover: %v\n%s", i+1, err, w.out)
		}
	}
	mu.Lock()
	back := append([]worker(nil), respawned...)
	mu.Unlock()
	if len(back) == 0 {
		t.Fatal("the Respawn hook was never called")
	}
	for i, w := range back {
		if err := w.cmd.Wait(); err != nil {
			t.Fatalf("respawned worker %d failed: %v\n%s", i, err, w.out)
		}
	}

	inproc, err := cosma.NewEngine(cosma.WithProcs(p), cosma.WithMemory(e2eMem), cosma.WithAlgorithm("cosma"))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := inproc.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("word %d: recovered wire product %v != fault-free %v (bitwise mismatch)", i, got.Data[i], want.Data[i])
		}
	}
	t.Logf("recovered in %d attempts, product bitwise-identical", rep.Attempts)
}
