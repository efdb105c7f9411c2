package cosma

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cosma/internal/machine"
	"cosma/internal/machine/wire"
	"cosma/internal/matrix"
)

// fastRetry keeps test backoffs negligible.
var fastRetry = RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}

// retryTransports enumerates the engine option sets the retry tests run
// under at p ranks: the counting transport, the timed transport, and the
// wire transport in loopback form (every rank hosted by this process, so
// no helper processes are needed).
func retryTransports(t *testing.T, p int) []struct {
	name string
	opts []Option
} {
	t.Helper()
	loopback := []string{}
	addr := WireSocketAddrs(t.TempDir(), 1)[0]
	for i := 0; i < p; i++ {
		loopback = append(loopback, addr)
	}
	return []struct {
		name string
		opts []Option
	}{
		{"counting", nil},
		{"timed", []Option{WithNetwork(PizDaintNetwork())}},
		{"wire-loopback", []Option{
			WithWireTransport(WireConfig{Rank: 0, Peers: loopback}),
			WithRecvTimeout(30 * time.Second),
		}},
	}
}

// TestRetryRecoversFromScriptedDeath kills each non-root rank of a p = 8
// run in turn, on the first attempt only, and proves WithRetry re-runs
// to success on every transport: 100 % recovery, the attempt count
// surfaced, and the retried product bitwise-identical to a fault-free
// engine's.
func TestRetryRecoversFromScriptedDeath(t *testing.T) {
	const p = 8
	a := RandomMatrix(64, 64, 1)
	b := RandomMatrix(64, 64, 2)
	clean, err := NewEngine(WithProcs(p), WithMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := clean.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range retryTransports(t, p) {
		t.Run(tc.name, func(t *testing.T) {
			for rank := 1; rank < p; rank++ {
				opts := append([]Option{
					WithProcs(p), WithMemory(1 << 16),
					WithFaultPlan(FaultPlan{Deaths: []RankDeath{{Rank: rank, Round: 0, OnAttempt: 1}}}),
					WithRetry(fastRetry),
				}, tc.opts...)
				eng, err := NewEngine(opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, rep, err := eng.Exec(context.Background(), a, b)
				eng.Close()
				if err != nil {
					t.Fatalf("rank %d: retry did not recover: %v", rank, err)
				}
				if rep.Attempts != 2 {
					t.Fatalf("rank %d: attempts = %d, want 2", rank, rep.Attempts)
				}
				if !matrix.EqualWithin(got, want, 0) {
					t.Fatalf("rank %d: retried product differs bitwise from the fault-free run", rank)
				}
			}
		})
	}
}

// TestVerificationDetectsCorruption injects a silent payload corruption
// and proves WithVerification turns it into ErrCorruption on every
// transport, through both doors that execute a plan (Exec and
// MultiplyBatch) — without verification the corruption passes
// unnoticed, so this is the only line of defense.
func TestVerificationDetectsCorruption(t *testing.T) {
	a := RandomMatrix(64, 64, 3)
	b := RandomMatrix(64, 64, 4)
	for _, tc := range retryTransports(t, 4) {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{
				WithProcs(4), WithMemory(1 << 16),
				WithFaultPlan(FaultPlan{Corrupts: []Corrupt{{Src: -1, Dst: 0, Scale: 3}}}),
				WithVerification(true),
			}, tc.opts...)
			eng, err := NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			_, _, err = eng.Exec(context.Background(), a, b)
			if !errors.Is(err, ErrCorruption) {
				t.Fatalf("Exec: err = %v, want ErrCorruption", err)
			}
			outs, _, err := eng.MultiplyBatch(context.Background(), []Pair{{a, b}})
			if !errors.Is(err, ErrCorruption) || outs[0] != nil {
				t.Fatalf("MultiplyBatch: product %v, err = %v, want no product and ErrCorruption", outs[0], err)
			}
		})
	}
}

// TestVerificationCleanRunIsIdentity proves ABFT verification never
// rejects (or perturbs) a correct product: a verified engine returns
// the same bits as an unverified one, in one attempt.
func TestVerificationCleanRunIsIdentity(t *testing.T) {
	a := RandomMatrix(96, 80, 5)
	b := RandomMatrix(80, 72, 6)
	run := func(opts ...Option) *Matrix {
		eng, err := NewEngine(append([]Option{WithProcs(4), WithMemory(1 << 16)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		c, rep, err := eng.Exec(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Attempts != 1 {
			t.Fatalf("attempts = %d, want 1", rep.Attempts)
		}
		return c
	}
	plain := run()
	verified := run(WithVerification(true), WithRetry(fastRetry))
	if !matrix.EqualWithin(plain, verified, 0) {
		t.Fatal("verification changed the product")
	}
}

// TestRetryRecoversFromCorruption chains the two mechanisms: ABFT
// detects a first-attempt corruption, the retry loop re-runs, and the
// second attempt is clean and bitwise-correct.
func TestRetryRecoversFromCorruption(t *testing.T) {
	a := RandomMatrix(64, 64, 7)
	b := RandomMatrix(64, 64, 8)
	clean, err := NewEngine(WithProcs(4), WithMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := clean.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(
		WithProcs(4), WithMemory(1<<16),
		WithFaultPlan(FaultPlan{Corrupts: []Corrupt{{Src: -1, Dst: 0, Scale: 3, OnAttempt: 1}}}),
		WithVerification(true), WithRetry(fastRetry),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatalf("retry after corruption: %v", err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rep.Attempts)
	}
	if !matrix.EqualWithin(got, want, 0) {
		t.Fatal("recovered product differs bitwise from the fault-free run")
	}
}

// TestRetryExhaustsAttempts proves a persistent fault is surfaced with
// the original root cause and the attempt count once the policy is
// spent.
func TestRetryExhaustsAttempts(t *testing.T) {
	eng, err := NewEngine(
		WithProcs(4), WithMemory(1<<16),
		WithFaultPlan(FaultPlan{Deaths: []RankDeath{{Rank: 1, Round: 0}}}), // every attempt
		WithRetry(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = eng.Exec(context.Background(), RandomMatrix(48, 48, 9), RandomMatrix(48, 48, 10))
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("err = %v, want ErrFaultInjected", err)
	}
	if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Fatalf("error does not carry the attempt count: %v", err)
	}
}

// TestRetryableClassifier pins the transient/permanent split the retry
// loop relies on.
func TestRetryableClassifier(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{ErrEngineClosed, false},
		{errors.New("cosma: A is 3×4 but B is 5×6"), false},
		{machine.ErrFaultInjected, true},
		{machine.ErrRecvTimeout, true},
		{wire.ErrPeerFailure, true},
		{ErrCorruption, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestWithRetryRejectsNegativePolicy proves option validation happens
// at construction.
func TestWithRetryRejectsNegativePolicy(t *testing.T) {
	if _, err := NewEngine(WithRetry(RetryPolicy{MaxAttempts: -1})); err == nil {
		t.Fatal("NewEngine accepted MaxAttempts: -1")
	}
	if _, err := NewEngine(WithRetry(RetryPolicy{BaseBackoff: -time.Second})); err == nil {
		t.Fatal("NewEngine accepted a negative backoff")
	}
}

// TestCloseIdempotentUnderConcurrentExec hammers Close against
// in-flight Exec retries: every Close must return the same result,
// every Exec must either succeed or fail with ErrEngineClosed, and
// (under -race) no state may be torn.
func TestCloseIdempotentUnderConcurrentExec(t *testing.T) {
	eng, err := NewEngine(
		WithProcs(4), WithMemory(1<<16),
		WithRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := RandomMatrix(48, 48, 11)
	b := RandomMatrix(48, 48, 12)

	var wg sync.WaitGroup
	start := make(chan struct{})
	const execs, closes = 8, 4
	execErrs := make([]error, execs)
	for i := 0; i < execs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 5; j++ {
				if _, _, err := eng.Exec(context.Background(), a, b); err != nil {
					execErrs[i] = err
					return
				}
			}
		}(i)
	}
	closeErrs := make([]error, closes)
	for i := 0; i < closes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(i) * time.Millisecond)
			closeErrs[i] = eng.Close()
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range execErrs {
		if err != nil && !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("exec goroutine %d: %v, want nil or ErrEngineClosed", i, err)
		}
	}
	for i, err := range closeErrs {
		if err != closeErrs[0] {
			t.Fatalf("close %d returned %v, close 0 returned %v — not idempotent", i, err, closeErrs[0])
		}
	}
	if _, _, err := eng.Exec(context.Background(), a, b); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("exec after close: %v, want ErrEngineClosed", err)
	}
	if _, _, err := eng.MultiplyBatch(context.Background(), []Pair{{A: a, B: b}}); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("batch after close: %v, want ErrEngineClosed", err)
	}
}
