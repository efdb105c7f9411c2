package cosma

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestEngineOverlapBitwiseIdentical drives the public surface: for
// COSMA, SUMMA and 2.5D across machine sizes and kernel thread counts, an
// overlap engine's product must equal the synchronous engine's bit for
// bit. Run under -race in CI, this also exercises the pipelined round
// loop's concurrency.
func TestEngineOverlapBitwiseIdentical(t *testing.T) {
	a := RandomMatrix(120, 88, 21)
	b := RandomMatrix(88, 104, 22)
	for _, algoName := range []string{"cosma", "summa", "2.5d"} {
		for _, p := range []int{4, 8, 16} {
			for _, threads := range []int{1, 2} {
				opts := func(overlap bool) []Option {
					return []Option{
						WithAlgorithm(algoName), WithProcs(p),
						WithMemory(3 * 120 * 104 / p),
						WithKernelThreads(threads), WithOverlap(overlap),
					}
				}
				engSync, err := NewEngine(opts(false)...)
				if err != nil {
					t.Fatal(err)
				}
				engPipe, err := NewEngine(opts(true)...)
				if err != nil {
					t.Fatal(err)
				}
				cSync, repSync, err := engSync.Exec(context.Background(), a, b)
				if err != nil {
					t.Fatalf("%s p=%d threads=%d sync: %v", algoName, p, threads, err)
				}
				cPipe, repPipe, err := engPipe.Exec(context.Background(), a, b)
				if err != nil {
					t.Fatalf("%s p=%d threads=%d overlap: %v", algoName, p, threads, err)
				}
				if repSync.Overlap || !repPipe.Overlap {
					t.Errorf("%s p=%d: report Overlap flags sync=%v pipe=%v",
						algoName, p, repSync.Overlap, repPipe.Overlap)
				}
				for i := range cSync.Data {
					if cSync.Data[i] != cPipe.Data[i] {
						t.Fatalf("%s p=%d threads=%d: element %d differs bitwise",
							algoName, p, threads, i)
					}
				}
			}
		}
	}
}

// TestEngineOverlapTimedReport checks the timed end-to-end path: with
// WithOverlap the measured critical path at 512³/p=16 is strictly below
// the synchronous engine's, and both reports carry the serial and
// overlapped predictions with overlapped ≤ serial.
func TestEngineOverlapTimedReport(t *testing.T) {
	const n, p = 512, 16
	a := RandomMatrix(n, n, 31)
	b := RandomMatrix(n, n, 32)
	run := func(overlap bool) *Report {
		eng, err := NewEngine(WithProcs(p), WithMemory(3*n*n/p),
			WithNetwork(PizDaintNetwork()), WithOverlap(overlap))
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := eng.Exec(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	repSync := run(false)
	repPipe := run(true)
	if repPipe.CritPathTime >= repSync.CritPathTime {
		t.Errorf("overlap engine critical path %v not strictly below synchronous %v",
			repPipe.CritPathTime, repSync.CritPathTime)
	}
	for _, rep := range []*Report{repSync, repPipe} {
		if rep.PredictedOverlapTime <= 0 || rep.PredictedOverlapTime > rep.PredictedTime {
			t.Errorf("predictions: overlap %v, serial %v (want 0 < overlap ≤ serial)",
				rep.PredictedOverlapTime, rep.PredictedTime)
		}
	}
}

// TestPredictOverlap checks the two analytic predictions of Predict
// against each other.
func TestPredictOverlap(t *testing.T) {
	eng, err := NewEngine(WithProcs(16), WithNetwork(PizDaintNetwork()))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := eng.Predict(context.Background(), 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if pred.OverlapTime <= 0 || pred.SerialTime <= 0 || pred.OverlapTime > pred.SerialTime {
		t.Errorf("Predict = (%v, %v), want 0 < overlapped ≤ serial", pred.SerialTime, pred.OverlapTime)
	}

	counting, err := NewEngine(WithProcs(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := counting.Predict(context.Background(), 64, 64, 64); err == nil {
		t.Error("Predict on a counting engine did not error")
	}
}

// TestOverlapExecCancellation cancels a pipelined execution mid-run:
// ranks parked in Request.Wait inside the prefetching round loop must
// unwind and Exec must return ctx.Err(), with the engine reusable
// afterwards.
func TestOverlapExecCancellation(t *testing.T) {
	const n, p = 256, 8
	eng, err := NewEngine(WithProcs(p), WithMemory(3*n*n/p), WithOverlap(true))
	if err != nil {
		t.Fatal(err)
	}
	a := RandomMatrix(n, n, 41)
	b := RandomMatrix(n, n, 42)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond) // let the round loops start
		cancel()
	}()
	if _, _, err := eng.Exec(ctx, a, b); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled overlapped Exec returned %v", err)
	}
	// The engine (and its pooled executor) must remain usable.
	if _, _, err := eng.Exec(context.Background(), a, b); err != nil {
		t.Fatalf("engine not reusable after cancelled overlapped run: %v", err)
	}
}
