package baselines

import (
	"math"
	"math/rand"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// TestGridPoliciesPinSchedule pins SUMMA's and 2.5D's synchronous runs
// on the pizdaint network to the values their own rank programs
// produced before they became grid choices on core's plan: the counters
// exactly, the critical path to 1e-8 relative.
func TestGridPoliciesPinSchedule(t *testing.T) {
	net := machine.PizDaintNet()
	for _, c := range []struct {
		pl                      algo.Spec
		m, n, k, p, s           int
		grid                    string
		recv, volume, tot, msgs int64
		crit                    float64
	}{
		{summa, 97, 61, 113, 6, 4000, "[2×3×1]", 4851, 9772, 28815, 10, 2.31738551e-4},
		{summa, 300, 200, 100, 12, 20000, "[3×4×1]", 10850, 21700, 130000, 18, 5.97729469e-4},
		{c25d, 300, 200, 100, 12, 20000, "[2×3×2]", 15875, 27675, 165000, 14, 5.96143116e-4},
		{c25d, 128, 128, 128, 4, 1 << 20, "[1×2×2]", 16384, 24576, 49152, 6, 6.03382802e-4},
	} {
		a := matrix.Random(c.m, c.k, rand.New(rand.NewSource(1)))
		b := matrix.Random(c.k, c.n, rand.New(rand.NewSource(2)))
		rep := checkCorrect(t, c.pl.Display, func() (*matrix.Dense, *algo.Report, error) {
			return algo.Run(c.pl.Plan, algo.Config{}, &net, a, b, c.p, c.s)
		}, a, b, c.k)
		if rep.Grid != c.grid || rep.Used != c.p || rep.MaxRecv != c.recv ||
			rep.MaxVolume != c.volume || rep.Total != c.tot || rep.MaxMsgs != c.msgs {
			t.Errorf("%s %d×%d×%d p=%d: grid %s used %d recv %d volume %d total %d msgs %d, want %s %d %d %d %d %d",
				c.pl.Display, c.m, c.n, c.k, c.p, rep.Grid, rep.Used, rep.MaxRecv, rep.MaxVolume, rep.Total, rep.MaxMsgs,
				c.grid, c.p, c.recv, c.volume, c.tot, c.msgs)
		}
		if math.Abs(rep.CritPathTime-c.crit) > 1e-8*c.crit {
			t.Errorf("%s %d×%d×%d p=%d: critical path %.9g s, want %.9g", c.pl.Display, c.m, c.n, c.k, c.p, rep.CritPathTime, c.crit)
		}
	}
}

// TestOneGridOneSchedule is the paper's §6.3 point made executable: the
// three Algorithm 1 algorithms differ only in the grid they choose, so
// where COSMA fits the grid the baselines fix upfront (4×4×1 at 256³,
// p=16, S=6000) all three are the same run — same counters, same
// critical path, same product bits.
func TestOneGridOneSchedule(t *testing.T) {
	const n, p, s = 256, 16, 6000
	net := machine.PizDaintNet()
	a := matrix.Random(n, n, rand.New(rand.NewSource(3)))
	b := matrix.Random(n, n, rand.New(rand.NewSource(4)))
	want, ref, err := algo.Run(cosma.Plan, algo.Config{}, &net, a, b, p, s)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Grid != "[4×4×1]" {
		t.Fatalf("COSMA fitted %s, want [4×4×1]", ref.Grid)
	}
	for _, pl := range []algo.Spec{summa, c25d} {
		got, rep, err := algo.Run(pl.Plan, algo.Config{}, &net, a, b, p, s)
		if err != nil {
			t.Fatalf("%s: %v", pl.Display, err)
		}
		if rep.Grid != ref.Grid || rep.Used != ref.Used || rep.AvgRecv != ref.AvgRecv ||
			rep.MaxRecv != ref.MaxRecv || rep.MaxVolume != ref.MaxVolume || rep.Total != ref.Total ||
			rep.MaxMsgs != ref.MaxMsgs || rep.CritPathTime != ref.CritPathTime {
			t.Errorf("%s ran %+v, COSMA ran %+v", pl.Display, rep, ref)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: element %d differs bitwise from COSMA's", pl.Display, i)
			}
		}
	}
}
