package cosma

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/machine/wire"
)

// backoff returns the sleep before re-run number attempt (1 = the
// first re-run): 10ms, doubling up to 1s.
func backoff(attempt int) time.Duration {
	d := 10 * time.Millisecond
	for i := 1; i < attempt && d < time.Second; i++ {
		d *= 2
	}
	return min(d, time.Second)
}

// ErrEngineClosed is returned by Exec and MultiplyBatch once Close has
// been called on the engine.
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

// runRetry drives one executor through the engine's attempts: run,
// verify (when WithVerification is on), and on a retryable failure
// recover the transport, back off, and run again on the same executor
// — reusing it keeps the per-rank kernels warm and advances the fault
// plan's attempt clock, so OnAttempt-scripted faults play out as
// scheduled. The successful report carries the attempt count.
func (p *Plan) runRetry(ctx context.Context, ex *algo.Executor, a, b *Matrix) (*Matrix, *Report, error) {
	e := p.eng
	maxAttempts := max(e.cfg.attempts, 1)
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
		timer := time.NewTimer(backoff(attempt))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, nil, ctx.Err()
		case <-timer.C:
		}
	}
}
