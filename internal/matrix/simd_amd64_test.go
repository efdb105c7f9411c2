//go:build amd64 && !noasm

package matrix

import "testing"

// TestAVX2DispatchesFused4x12: an AVX2+FMA CPU runs the fused 4×12
// assembly tile, any other amd64 CPU the portable Go 4×4.
func TestAVX2DispatchesFused4x12(t *testing.T) {
	d := dispatched
	if !hasAVX2FMA {
		if d.name != portableTile.name || d.sweep != nil {
			t.Fatalf("CPU without AVX2+FMA dispatches %q", d.name)
		}
		return
	}
	if d.name != "avx2-4x12" || d.mr != 4 || d.nr != 12 || !d.fused || d.sweep == nil {
		t.Fatalf("AVX2+FMA CPU dispatches %s %d×%d fused=%v, want the fused avx2-4x12", d.name, d.mr, d.nr, d.fused)
	}
}
