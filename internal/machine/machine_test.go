package machine

import (
	"errors"
	"testing"
)

// TestRunReportsError: an error a rank program returns is what Run
// returns. The conformance suite's programs return errors only when a
// check fails, so no other test would see Run drop one.
func TestRunReportsError(t *testing.T) {
	m := New(3)
	want := errors.New("boom")
	err := m.Run(func(r *Rank) error {
		if r.ID() == 1 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}
