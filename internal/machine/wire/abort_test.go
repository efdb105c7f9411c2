package wire

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLateAbortStaysInItsRun races a peer's ABORT for the run that just
// ended here against Begin of the next run: the abort either lands on
// the run it names or is dropped as stale. It must never be recorded for
// the next run, nor interrupt it (which would broadcast it again there).
func TestLateAbortStaysInItsRun(t *testing.T) {
	tr, err := New(Config{Rank: 0, Peers: SocketAddrs(t.TempDir(), 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var seen atomic.Int64 // the epoch the last interrupt found
	tr.Bind(func(int, int, int, []float64, int) {}, func() { seen.Store(tr.curEpoch()); tr.Abort() })
	for range 200000 {
		tr.Begin(func() {})
		ended := tr.curEpoch()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.remoteAbort(ended)
		}()
		err := tr.Begin(func() {})
		wg.Wait()
		if err != nil || tr.Failure() != nil || seen.Load() > ended {
			t.Fatalf("the abort of run %d reached run %d: Begin %v, Failure %v, interrupt in run %d",
				ended, ended+1, err, tr.Failure(), seen.Load())
		}
	}
}
