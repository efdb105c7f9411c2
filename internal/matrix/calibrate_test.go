package matrix

import "testing"

// TestCalibrateMemoized checks the calibration memo: one measurement
// loop per (n, threads), identical results on repeat, and the variant
// field naming the kernel's actual dispatch.
func TestCalibrateMemoized(t *testing.T) {
	calMemo.Lock()
	before := calMemo.runs
	calMemo.Unlock()

	c1 := Calibrate(64, 1)
	c2 := Calibrate(64, 1)
	if c1 != c2 {
		t.Fatalf("memoized Calibrate differs: %+v vs %+v", c1, c2)
	}
	if c1.Variant != BestVariant().String() {
		t.Errorf("calibration names variant %q, kernel dispatches %q", c1.Variant, BestVariant())
	}
	calMemo.Lock()
	runs := calMemo.runs
	calMemo.Unlock()
	if runs != before+1 {
		t.Fatalf("two Calibrate(64,1) calls ran %d measurement loops, want 1", runs-before)
	}
}

// TestVariantsPortableFirst pins the dispatch-table invariants the
// noasm build relies on.
func TestVariantsPortableFirst(t *testing.T) {
	vs := Variants()
	if len(vs) == 0 || vs[0] != VariantGo4x4 {
		t.Fatalf("Variants() = %v, want portable go4x4 first", vs)
	}
	for _, v := range vs {
		if !v.Available() {
			t.Errorf("Variants() listed unavailable %s", v)
		}
		mr, nr := v.Dims()
		if mr < 1 || nr < 1 {
			t.Errorf("%s has degenerate tile %d×%d", v, mr, nr)
		}
	}
	if best := BestVariant(); !best.Available() {
		t.Fatalf("BestVariant() = %s is unavailable", best)
	}
	// An unavailable or out-of-range variant must degrade portably.
	p := Params{Variant: numVariants}.normalized()
	if p.Variant != VariantGo4x4 {
		t.Errorf("out-of-range variant normalized to %s, want go4x4", p.Variant)
	}
}
