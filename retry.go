package cosma

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/machine/wire"
)

// RetryPolicy governs how a WithRetry engine re-runs a multiplication
// after a transient fault. The zero value of each field selects its
// default, so RetryPolicy{} is a sensible policy (3 attempts, 10ms
// base backoff doubling to 1s, seed 1).
type RetryPolicy struct {
	// MaxAttempts bounds the total number of executions, the first
	// included. 0 means 3.
	MaxAttempts int
	// BaseBackoff is the sleep before the first re-run; each further
	// re-run doubles it, capped at MaxBackoff. 0 means 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. 0 means 1s.
	MaxBackoff time.Duration
	// Seed seeds the jitter applied to every backoff (half the computed
	// backoff is deterministic, half is seeded-random), so retry storms
	// decorrelate across engines while any single engine replays
	// identically. 0 means 1.
	Seed int64
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 3
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseBackoff > 0 {
		return p.BaseBackoff
	}
	return 10 * time.Millisecond
}

func (p RetryPolicy) max() time.Duration {
	if p.MaxBackoff > 0 {
		return p.MaxBackoff
	}
	return time.Second
}

func (p RetryPolicy) seed() int64 {
	if p.Seed != 0 {
		return p.Seed
	}
	return 1
}

// backoff returns the sleep before re-run number attempt (attempt 1 =
// first re-run): capped exponential growth with seeded jitter in
// [d/2, d).
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.base()
	for i := 1; i < attempt && d < p.max(); i++ {
		d *= 2
	}
	if d > p.max() {
		d = p.max()
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(rng.Int63n(int64(half)))
	}
	return d
}

// ErrEngineClosed is returned by Exec, MultiplyBatch and Recover once
// Close has been called on the engine.
var ErrEngineClosed = errors.New("cosma: engine is closed")

// Retryable classifies an execution error for the retry layer: true
// for the transient failure classes a re-run (after recovery) can
// survive — an injected fault, a receive deadline, a wire peer failure
// or abort, a detected silent corruption — and false for everything
// permanent: validation errors, cancellation, a closed engine.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrEngineClosed) {
		return false
	}
	return errors.Is(err, machine.ErrFaultInjected) ||
		errors.Is(err, machine.ErrRecvTimeout) ||
		errors.Is(err, wire.ErrPeerFailure) ||
		errors.Is(err, ErrCorruption)
}

// runRetry drives one executor through the plan's retry policy: run,
// verify (when WithVerification is on), and on a retryable failure
// recover the transport, back off, and run again on the same executor
// — reusing it keeps the per-rank scratch warm and advances the fault
// plan's attempt clock, so OnAttempt-scripted faults play out as
// scheduled. The successful report carries the attempt count.
func (p *Plan) runRetry(ctx context.Context, ex *algo.Executor, a, b *Matrix) (*Matrix, *Report, error) {
	e := p.eng
	maxAttempts := 1
	var rng *rand.Rand
	if e.cfg.retry != nil {
		maxAttempts = e.cfg.retry.maxAttempts()
		rng = rand.New(rand.NewSource(e.cfg.retry.seed()))
	}
	for attempt := 1; ; attempt++ {
		if e.closed.Load() {
			return nil, nil, ErrEngineClosed
		}
		c, rep, err := ex.Exec(ctx, a, b)
		if err == nil && e.cfg.verify {
			err = VerifyProduct(a, b, c)
		}
		if err == nil {
			rep.Attempts = attempt
			return c, rep, nil
		}
		if attempt >= maxAttempts || !Retryable(err) {
			if attempt > 1 {
				err = fmt.Errorf("%w (after %d attempts)", err, attempt)
			}
			return nil, nil, err
		}
		if errors.Is(err, ErrCorruption) && e.multiProc() {
			// A corruption verdict exists only in the process hosting
			// rank 0; the peers saw a clean run and will not re-run with
			// us. Re-running alone would wedge the collective — surface
			// the verdict instead.
			return nil, nil, err
		}
		if e.wireTr != nil {
			if rerr := e.wireTr.Recover(); rerr != nil {
				return nil, nil, fmt.Errorf("cosma: recovering before attempt %d: %v (run failed with %w)",
					attempt+1, rerr, err)
			}
		}
		d := e.cfg.retry.backoff(attempt, rng)
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, nil, ctx.Err()
		case <-timer.C:
		}
	}
}
