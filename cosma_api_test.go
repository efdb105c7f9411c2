package cosma

import (
	"context"
	"reflect"
	"testing"
)

// execOnce is the test shorthand for a one-shot engine multiplication.
func execOnce(t *testing.T, a, b *Matrix, opts ...Option) (*Matrix, *Report) {
	t.Helper()
	eng, err := NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	return got, rep
}

func TestExecDefaults(t *testing.T) {
	a := RandomMatrix(20, 30, 1)
	b := RandomMatrix(30, 10, 2)
	got, rep := execOnce(t, a, b)
	if rep.P != 1 || got.Rows != 20 || got.Cols != 10 {
		t.Fatalf("defaults: p=%d dims %d×%d", rep.P, got.Rows, got.Cols)
	}
}

func TestExecParallelMatchesSequential(t *testing.T) {
	a := RandomMatrix(32, 24, 3)
	b := RandomMatrix(24, 40, 4)
	par, _ := execOnce(t, a, b, WithProcs(8), WithMemory(1<<16))
	sq := MultiplySequential(a, b, 64)
	var maxd float64
	for i := range par.Data {
		if d := par.Data[i] - sq.C.Data[i]; d > maxd {
			maxd = d
		} else if -d > maxd {
			maxd = -d
		}
	}
	if maxd > 1e-9 {
		t.Fatalf("parallel vs sequential diff %g", maxd)
	}
}

func TestSequentialIOAgainstBound(t *testing.T) {
	a := RandomMatrix(48, 48, 5)
	b := RandomMatrix(48, 48, 6)
	res := MultiplySequential(a, b, 200)
	lb := SequentialLowerBound(48, 48, 48, 200)
	if float64(res.IO()) < lb {
		t.Fatalf("measured IO %d beats the Theorem 1 bound %v", res.IO(), lb)
	}
	if float64(res.IO()) > 2*lb {
		t.Fatalf("measured IO %d far above the bound %v", res.IO(), lb)
	}
	if res.Peak > 200 {
		t.Fatalf("peak %d exceeds memory", res.Peak)
	}
}

func TestParallelLowerBoundExposed(t *testing.T) {
	if ParallelLowerBound(1024, 1024, 1024, 64, 1<<20) <= 0 {
		t.Fatal("bound must be positive")
	}
}

func TestPlanFigure5(t *testing.T) {
	eng, err := NewEngine(WithProcs(65), WithMemory(1<<22))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Plan(context.Background(), 4096, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := plan.Decomposition()
	if !ok {
		t.Fatal("COSMA plan must expose its decomposition")
	}
	if d.RanksUsed != 64 {
		t.Fatalf("Plan used %d ranks, want 64: %v", d.RanksUsed, d)
	}
	if d.GridPm != 4 || d.GridPn != 4 || d.GridPk != 4 {
		t.Fatalf("Plan grid %v", d)
	}
	if d.Rounds < 1 || d.StepSize < 1 {
		t.Fatalf("degenerate rounds: %v", d)
	}
}

func TestAlgorithmsAgree(t *testing.T) {
	a := RandomMatrix(16, 16, 7)
	b := RandomMatrix(16, 16, 8)
	want, _ := execOnce(t, a, b, WithProcs(4), WithMemory(1<<16))
	for _, name := range Algorithms() {
		got, _ := execOnce(t, a, b, WithAlgorithm(name), WithProcs(4), WithMemory(1<<16))
		for i := range got.Data {
			d := got.Data[i] - want.Data[i]
			if d > 1e-9 || d < -1e-9 {
				t.Fatalf("%s disagrees at %d by %g", name, i, d)
			}
		}
	}
}

func TestAlgorithmsListsRegistry(t *testing.T) {
	want := []string{"cosma", "summa", "2.5d", "carma", "cannon"}
	if names := Algorithms(); !reflect.DeepEqual(names, want) {
		t.Fatalf("registry names %v, want the paper's order %v", names, want)
	}
}

func TestExecOnTimedNetwork(t *testing.T) {
	a := RandomMatrix(32, 32, 1)
	b := RandomMatrix(32, 32, 2)
	got, rep := execOnce(t, a, b, WithProcs(4), WithMemory(1<<16), WithNetwork(PizDaintNetwork()))
	if rep.Network != PizDaintNetwork() {
		t.Fatalf("report network %+v", rep.Network)
	}
	if rep.CritPathTime <= 0 || rep.PredictedAsExecuted() <= 0 {
		t.Fatalf("missing runtime prediction: %+v", rep)
	}
	// The result must be identical to the counting-transport run: timing
	// is an overlay, not a behavioral change.
	plain, plainRep := execOnce(t, a, b, WithProcs(4), WithMemory(1<<16))
	for i := range got.Data {
		if got.Data[i] != plain.Data[i] {
			t.Fatalf("timed result differs at %d", i)
		}
	}
	if plainRep.Network != (NetworkParams{}) || plainRep.CritPathTime != 0 {
		t.Fatalf("counting run carries timing: %+v", plainRep)
	}
	if plainRep.MaxVolume != rep.MaxVolume || plainRep.MaxMsgs != rep.MaxMsgs {
		t.Fatalf("transports disagree on traffic: %+v vs %+v", plainRep, rep)
	}
}

// predictSerial prices the serial schedule of a timed engine's plan.
func predictSerial(t *testing.T, m, n, k, p, s int, net NetworkParams) float64 {
	t.Helper()
	eng, err := NewEngine(WithProcs(p), WithMemory(s), WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Plan(context.Background(), m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Model().Time(net, false)
}

func TestPredictScales(t *testing.T) {
	net := PizDaintNetwork()
	// At the paper's scale, more memory per rank must not slow COSMA
	// down, and the prediction must be positive and finite.
	small := predictSerial(t, 16384, 16384, 16384, 1024, 1<<22, net)
	big := predictSerial(t, 16384, 16384, 16384, 1024, 1<<27, net)
	if small <= 0 || big <= 0 {
		t.Fatalf("nonpositive predictions %v %v", small, big)
	}
	if big > small {
		t.Fatalf("extra memory slowed the prediction: S=2^22 %v < S=2^27 %v", small, big)
	}
	// A latency-heavy network must predict a slower run than shared
	// memory for the same problem.
	if eth, shm := predictSerial(t, 512, 512, 512, 16, 1<<16, EthernetNetwork()),
		predictSerial(t, 512, 512, 512, 16, 1<<16, SharedMemoryNetwork()); eth <= shm {
		t.Fatalf("ethernet %v not slower than shared memory %v", eth, shm)
	}
}

func TestPredictFields(t *testing.T) {
	const p, s = 16, 1 << 16
	net := PizDaintNetwork()
	// Every registered algorithm: the plan's model, priced on the
	// network, is the network's own serial sum, and overlapping can only
	// hide time — no second α-β-γ sum, no per-algorithm exponent.
	for _, name := range Algorithms() {
		eng, err := NewEngine(WithAlgorithm(name), WithProcs(p), WithMemory(s), WithNetwork(net))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := eng.Plan(context.Background(), 512, 512, 512)
		if err != nil {
			t.Fatal(err)
		}
		mod := plan.Model()
		serial, overlap := mod.Time(net, false), mod.Time(net, true)
		if want := net.Time(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs); serial != want {
			t.Fatalf("%s: serial prediction %v != the network's sum %v", name, serial, want)
		}
		if overlap <= 0 || overlap > serial || mod.MaxRecv <= 0 {
			t.Fatalf("%s: degenerate prediction: overlap %v, serial %v, model %+v", name, overlap, serial, mod)
		}
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := MatrixFromSlice(2, 2, []float64{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Fatal("FromSlice layout")
	}
	z := NewMatrix(3, 3)
	if z.At(2, 2) != 0 {
		t.Fatal("NewMatrix not zeroed")
	}
}
