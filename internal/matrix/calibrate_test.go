package matrix

import "testing"

// TestCalibrateNamesDispatchedTile: the calibration measures, and names,
// the tile NewKernel runs, and reports whether it is fused.
func TestCalibrateNamesDispatchedTile(t *testing.T) {
	if got := NewKernel(1).tile.name; got != dispatched.name {
		t.Fatalf("NewKernel runs %q, the process dispatched %q", got, dispatched.name)
	}
	if cal := Calibrate(64, 1); cal.Variant != dispatched.name || cal.Fused != dispatched.fused {
		t.Errorf("calibration names tile %q fused=%v, kernel dispatches %q fused=%v", cal.Variant, cal.Fused, dispatched.name, dispatched.fused)
	}
	if (dispatched.sweep == nil) != (dispatched.name == portableTile.name) {
		t.Errorf("tile %q has sweep %v", dispatched.name, dispatched.sweep != nil)
	}
}
