//go:build noasm

package matrix

import "testing"

// TestNoasmDispatchesPortableTile: without assembly the process runs
// the unfused Go 4×4.
func TestNoasmDispatchesPortableTile(t *testing.T) {
	d := dispatched
	if d.name != "go4x4" || d.mr != 4 || d.nr != 4 || d.fused || d.sweep != nil {
		t.Fatalf("noasm build dispatches %+v, want the unfused Go 4×4", d)
	}
}
