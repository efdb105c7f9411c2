package baselines

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// TestGridPoliciesPinSchedule pins SUMMA's and 2.5D's synchronous runs
// on the pizdaint network: the words exactly, to the values their own
// rank programs produced before they became grid choices on core's
// plan, the messages and the critical path (to 1e-8 relative) as
// measured since a round's two broadcasts go out together, the last
// round is multiplied block by block inside the fiber reduction and,
// on SUMMA's four-wide [3×4×1], each A panel travels in three row blocks.
func TestGridPoliciesPinSchedule(t *testing.T) {
	net := machine.PizDaintNet()
	for _, c := range []struct {
		pl                      algo.Spec
		m, n, k, p, s           int
		grid                    string
		recv, volume, tot, msgs int64
		crit                    float64
	}{
		{summa, 97, 61, 113, 6, 4000, "[2×3×1]", 4851, 9772, 28815, 10, 2.05405217e-4},
		{summa, 300, 200, 100, 12, 20000, "[3×4×1]", 10850, 21700, 130000, 38, 4.76878019e-4},
		{c25d, 300, 200, 100, 12, 20000, "[2×3×2]", 15875, 27675, 165000, 14, 5.56667120e-4},
		{c25d, 128, 128, 128, 4, 1 << 20, "[1×2×2]", 16384, 24576, 49152, 6, 5.96259324e-4},
	} {
		a := matrix.Random(c.m, c.k, rand.New(rand.NewSource(1)))
		b := matrix.Random(c.k, c.n, rand.New(rand.NewSource(2)))
		got, rep, err := algo.Run(c.pl.Plan, algo.Config{}, &net, a, b, c.p, c.s)
		if err != nil {
			t.Fatalf("%s: %v", c.pl.Display, err)
		}
		if d := matrix.MaxDiff(got, mulRef(a, b)); d > 1e-9*float64(c.k) {
			t.Errorf("%s %d×%d×%d p=%d: max diff %g", c.pl.Display, c.m, c.n, c.k, c.p, d)
		}
		if rep.Model.Grid != c.grid || rep.Model.Used != c.p || rep.MaxRecv != c.recv ||
			rep.MaxVolume != c.volume || rep.Total != c.tot || rep.MaxMsgs != c.msgs {
			t.Errorf("%s %d×%d×%d p=%d: grid %s used %d recv %d volume %d total %d msgs %d, want %s %d %d %d %d %d",
				c.pl.Display, c.m, c.n, c.k, c.p, rep.Model.Grid, rep.Model.Used, rep.MaxRecv, rep.MaxVolume, rep.Total, rep.MaxMsgs,
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
	if ref.Model.Grid != "[4×4×1]" {
		t.Fatalf("COSMA fitted %s, want [4×4×1]", ref.Model.Grid)
	}
	for _, pl := range []algo.Spec{summa, c25d} {
		got, rep, err := algo.Run(pl.Plan, algo.Config{}, &net, a, b, p, s)
		if err != nil {
			t.Fatalf("%s: %v", pl.Display, err)
		}
		if rep.Model.Grid != ref.Model.Grid || rep.Model.Used != ref.Model.Used || rep.AvgRecv != ref.AvgRecv ||
			rep.MaxRecv != ref.MaxRecv || rep.MaxVolume != ref.MaxVolume || rep.Total != ref.Total ||
			rep.MaxMsgs != ref.MaxMsgs || rep.CritPathTime != ref.CritPathTime {
			t.Errorf("%s ran %+v, COSMA ran %+v", pl.Display, rep, ref)
		}
		if !slices.Equal(got.Data, want.Data) {
			t.Errorf("%s: the product differs bitwise from COSMA's", pl.Display)
		}
	}
}
