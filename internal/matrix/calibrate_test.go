package matrix

import "testing"

// TestCalibrateNamesDispatchedTile: the calibration measures, and names,
// the tile NewKernel runs.
func TestCalibrateNamesDispatchedTile(t *testing.T) {
	if got := NewKernel(1).tile.name; got != dispatched.name {
		t.Fatalf("NewKernel runs %q, the process dispatched %q", got, dispatched.name)
	}
	if cal := Calibrate(64, 1); cal.Variant != dispatched.name {
		t.Errorf("calibration names tile %q, kernel dispatches %q", cal.Variant, dispatched.name)
	}
	if (dispatched.sweep == nil) != (dispatched.name == portableTile.name) {
		t.Errorf("tile %q has sweep %v", dispatched.name, dispatched.sweep != nil)
	}
}
