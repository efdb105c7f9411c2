package baselines

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/workload"
)

// suiteShape is one problem of the algorithm suite; grid, where set, is
// the grid COSMA must compile for it.
type suiteShape struct {
	m, n, k, p, s int
	grid          string
}

// The named tests' shapes: each runs every row on its own problems, so
// a failure names the case it was written for, and the suite
// (TestModelWordsEqualMeasured) runs every row on all the others.
var (
	summaShapes = []suiteShape{{16, 16, 16, 4, 4096, ""}, {24, 18, 12, 6, 4096, ""}, {8, 8, 64, 4, 4096, ""},
		{13, 29, 7, 12, 4096, ""}, {16, 16, 16, 1, 4096, ""}, {32, 32, 32, 9, 200, ""}} // 200 words: narrow panels
	summaModelShapes  = []suiteShape{{32, 32, 64, 16, 4096, ""}, {24, 48, 24, 6, 4096, ""}}
	cannonShapes      = []suiteShape{{32, 32, 16, 16, 4096, ""}, {8, 8, 8, 1, 4096, ""}}
	cannonModelShapes = []suiteShape{{24, 18, 12, 9, 4096, ""}} // its float mean once missed by an ulp
	c25dShapes        = []suiteShape{{16, 16, 16, 8, 1 << 20, ""}, {16, 16, 16, 8, 64, ""}, {8, 8, 64, 16, 1 << 20, ""},
		{24, 18, 12, 12, 1 << 16, ""}, {9, 11, 10, 6, 1 << 16, ""}} // replicated, SUMMA, deep, non-square p, awkward dims
	c25dModelShapes = []suiteShape{{16, 16, 64, 16, 1 << 20, ""}, {32, 32, 32, 8, 300, ""}}
	carmaShapes     = []suiteShape{{16, 16, 16, 1, 1 << 20, ""}, {8, 8, 64, 8, 1 << 20, ""}, {64, 8, 8, 16, 1 << 20, ""},
		{13, 29, 7, 4, 1 << 20, ""}, {16, 16, 16, 6, 1 << 20, ""}, {4, 4, 4, 32, 1 << 20, ""}} // idle ranks at p = 6, 32
	agreeShapes   = []suiteShape{{24, 24, 24, 4, 1 << 16, ""}}
	overlapShapes = []suiteShape{{96, 80, 112, 4, 12 * 96 * 80 / 4, ""}, {96, 80, 112, 8, 12 * 96 * 80 / 8, ""},
		{96, 80, 112, 16, 12 * 96 * 80 / 16, ""}} // room for two panel pairs
	namedShapes = [][]suiteShape{summaShapes, summaModelShapes, cannonShapes, cannonModelShapes, c25dShapes,
		c25dModelShapes, carmaShapes, agreeShapes, overlapShapes}
)

// suiteShapes are the suite's problems, none of them a named test's.
// small are ragged dimensions, prime and non-square rank counts, idle
// ranks at p = 65, a C tile smaller than its fiber (1×2×64, p = 8: empty
// reduction blocks), CARMA in C blocks and in ragged ones, A in bands on
// pizdaint, memory tight enough for one-outer-product rounds, COSMA's
// grid pins, CARMA's strided-input problem in one C block and in four,
// the engine's overlap problem, the seeded catalog and the Zipf serve
// catalog; eighth are the benchmark's two reducing shapes at an eighth
// of their edge; bench, without -short, are the benchmark's
// square-roomy, square-tight (three A bands on pizdaint) and tall-k.
func suiteShapes() (small, eighth, bench []suiteShape) {
	groups := [][]suiteShape{{
		{300, 200, 100, 12, 1 << 20, ""}, {97, 61, 203, 13, 1 << 20, ""}, {64, 64, 64, 27, 1 << 20, ""},
		{33, 500, 77, 24, 1 << 20, ""}, {1000, 30, 30, 10, 1 << 20, ""}, {1, 2, 64, 8, 1 << 20, ""},
		{256, 256, 256, 64, 3072, ""}, {97, 61, 203, 16, 600, ""}, // CARMA: C in blocks, ragged ones
		{300, 200, 100, 12, 20000, ""}, {256, 256, 256, 16, 6000, ""}, // A in bands on pizdaint
		{16, 16, 16, 4, 1024, ""}, {8, 8, 64, 8, 1024, ""}, {64, 8, 8, 8, 1024, ""},
		{32, 32, 4, 8, 1024, ""}, {8, 8, 8, 1, 1024, ""}, {24, 24, 24, 7, 1024, ""}, {16, 16, 16, 65, 1024, ""},
		{13, 11, 17, 6, 1024, ""}, {1, 2, 64, 8, 1024, ""},
		{32, 32, 32, 8, 1 << 20, "[2×2×2]"}, {16, 16, 64, 16, 1 << 20, "[1×2×8]"}, {64, 32, 16, 8, 1 << 20, "[4×2×1]"},
		{32, 32, 32, 8, 600, "[2×2×2]"}, {24, 20, 36, 8, 1 << 20, ""}, {24, 20, 36, 8, 100, ""},
	}}
	for _, p := range []int{4, 8, 16} { // room for two panel pairs
		groups = append(groups, []suiteShape{{120, 104, 88, p, 8 * 120 * 104 / p, ""}})
	}
	var catalog []suiteShape
	for i, d := range workload.NewGenerator(workload.GenConfig{Seed: 1, Shapes: 12}).Catalog() {
		catalog = append(catalog, suiteShape{d.M, d.N, d.K, 4 + 3*i, 1 << (12 + i%3*4), ""})
	}
	for _, d := range workload.NewGenerator(workload.GenConfig{Seed: 1, Shapes: 12, ZipfS: 1.1, MinDim: 32, MaxDim: 192}).Catalog() {
		catalog = append(catalog, suiteShape{d.M, d.N, d.K, 4, 110592, ""})
	}
	seen := map[suiteShape]bool{}
	for _, g := range namedShapes {
		for _, c := range g {
			seen[c] = true
		}
	}
	for _, g := range append(groups, catalog) {
		for _, c := range g {
			if !seen[c] {
				seen[c] = true
				small = append(small, c)
			}
		}
	}
	// square-roomy's grid and tall-k's 14-deep fiber
	eighth = []suiteShape{{512, 512, 512, 16, 1 << 20, "[2×2×4]"}, {128, 128, 15360, 15, 1 << 22, "[1×1×14]"}}
	if !testing.Short() {
		bench = []suiteShape{{1024, 1024, 1024, 16, 1 << 20, ""}, {1024, 1024, 1024, 16, 69632, ""}, {128, 128, 65536, 16, 1 << 18, ""}}
	}
	return small, eighth, bench
}

var pizdaint = machine.PizDaintNet()

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// suiteConfigs are the four runs of every row on every shape: the
// counting and the pizdaint machine, each with overlap off and on.
var suiteConfigs = []algo.Config{{}, {Overlap: true}, {Network: &pizdaint}, {Network: &pizdaint, Overlap: true}}

// mayRefuse are the rows whose grid or torus can fail a valid shape.
var mayRefuse = map[string]bool{summa.Name: true, c25d.Name: true, cannon.Name: true}

// checkRow runs row on c in each of configs and returns the plans it
// compiled and the first check it fails:
//   - a refusal is ErrUnsupportedShape from SUMMA, 2.5D or Cannon, and
//     in the first configuration (then nothing runs and plans is nil);
//   - each product is within 1e-9·k of want, and all carry one bit
//     pattern;
//   - each report's model is the plan's, and its measured average and
//     maximum received words and busiest rank's messages equal the
//     model's — ==, not a tolerance;
//   - COSMA compiles c.grid, where set.
func checkRow(row algo.Spec, c suiteShape, a, b, want *matrix.Dense, configs []algo.Config) ([]*algo.Plan, error) {
	var plans []*algo.Plan
	var first *matrix.Dense
	for _, cfg := range configs {
		at := fmt.Sprintf("%s %d×%d×%d p=%d S=%d overlap=%v network=%v", row.Display, c.m, c.n, c.k, c.p, c.s, cfg.Overlap, cfg.Network != nil)
		pl, err := row.Plan(cfg, c.m, c.n, c.k, c.p, c.s)
		if err != nil {
			if plans == nil && mayRefuse[row.Name] && errors.Is(err, algo.ErrUnsupportedShape) {
				return nil, nil
			}
			return nil, fmt.Errorf("%s: %v", at, err)
		}
		plans = append(plans, pl)
		got, rep, err := algo.Run(row.Plan, cfg, cfg.Network, a, b, c.p, c.s)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", at, err)
		}
		at += " grid " + pl.Grid
		if d := matrix.MaxDiff(got, want); d > 1e-9*float64(c.k) {
			return nil, fmt.Errorf("%s: max diff %g", at, d)
		}
		if first == nil {
			first = got
		}
		for i := range got.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(first.Data[i]) {
				return nil, fmt.Errorf("%s: element %d differs bitwise from the first run's", at, i)
			}
		}
		if mod := rep.Model; mod != pl.Model || rep.AvgRecv != mod.AvgRecv || float64(rep.MaxRecv) != mod.MaxRecv || float64(rep.MaxMsgs) != mod.MaxMsgs {
			return nil, fmt.Errorf("%s: measured avg %v max %d msgs %d, model %+v, plan's %+v", at, rep.AvgRecv, rep.MaxRecv, rep.MaxMsgs, mod, pl.Model)
		}
		if row.Name == cosma.Name && c.grid != "" && pl.Grid != c.grid {
			return nil, fmt.Errorf("%s: want grid %s", at, c.grid)
		}
	}
	return plans, nil
}

// suiteGroup is shapes to run rows on in configs.
type suiteGroup struct {
	shapes  []suiteShape
	configs []algo.Config
	rows    []algo.Spec
}

// suiteTally is what runSuite ran: the shapes each row planned, the
// shapes with a grid pin COSMA's row ran, and the plans in C blocks and
// in A bands.
type suiteTally struct {
	ran                     map[string]int
	pinned, blocked, banded int
}

// runSuite runs checkRow for each group's rows on each of its shapes,
// reports every failed check and tallies what ran.
func runSuite(t *testing.T, groups ...suiteGroup) suiteTally {
	t.Helper()
	rng := rand.New(rand.NewSource(25))
	tally := suiteTally{ran: map[string]int{}}
	for _, g := range groups {
		for _, c := range g.shapes {
			a, b := matrix.Random(c.m, c.k, rng), matrix.Random(c.k, c.n, rng)
			want := mulRef(a, b)
			for _, row := range g.rows {
				plans, err := checkRow(row, c, a, b, want, g.configs)
				if err != nil {
					t.Error(err)
				}
				if len(plans) > 0 {
					tally.ran[row.Name]++
					if row.Name == cosma.Name && c.grid != "" {
						tally.pinned++
					}
				}
				for _, pl := range plans {
					if pl.Geometry != nil && pl.Geometry.Blocks > 1 {
						tally.blocked++
					}
					if pl.Geometry != nil && pl.Geometry.Bands > 1 {
						tally.banded++
					}
				}
			}
		}
	}
	return tally
}

// smallConfigs are the configurations the small shapes run in: all
// four, or under -short or -race, to bound the time, counting with
// overlap on and pizdaint with it off, so each machine and each overlap
// setting runs and their products are compared bit for bit.
func smallConfigs() []algo.Config {
	if testing.Short() || raceEnabled {
		return suiteConfigs[1:3]
	}
	return suiteConfigs
}

// checkRows runs every row on shapes in the small shapes'
// configurations (runSuite) and requires each of planners to plan every
// shape.
func checkRows(t *testing.T, planners []algo.Spec, shapes []suiteShape) {
	t.Helper()
	tally := runSuite(t, suiteGroup{shapes, smallConfigs(), Algorithms})
	for _, row := range planners {
		if n := tally.ran[row.Name]; n != len(shapes) {
			t.Errorf("%s refused %d of its %d shapes", row.Display, len(shapes)-n, len(shapes))
		}
	}
}

// TestModelWordsEqualMeasured is the algorithm suite: it runs every row
// of the table of algorithms on every suite shape in the four suite
// configurations (checkRow), so each row's modelled words and messages
// are its measured ones, exactly. Under -short or -race it runs the
// small shapes in smallConfigs, the eighth-scale shapes on COSMA's row
// alone, counting with overlap off, and the benchmark's shapes on every
// row that way; under -race square-tight also runs on pizdaint, overlap
// off, for its three A bands. COSMA's row must run every shape with a
// grid pin, some CARMA plan must run in C blocks and some pizdaint plan
// in A bands, and every row must run somewhere.
func TestModelWordsEqualMeasured(t *testing.T) {
	small, eighth, bench := suiteShapes()
	groups := []suiteGroup{{small, smallConfigs(), Algorithms}, {eighth, suiteConfigs, Algorithms}, {bench, suiteConfigs, Algorithms}}
	if testing.Short() || raceEnabled {
		groups[1] = suiteGroup{eighth, suiteConfigs[:1], []algo.Spec{cosma}}
		groups[2].configs = suiteConfigs[:1]
	}
	if raceEnabled && bench != nil {
		groups = append(groups, suiteGroup{bench[1:2], suiteConfigs[2:3], Algorithms})
	}
	tally := runSuite(t, groups...)
	for _, row := range Algorithms {
		if tally.ran[row.Name] == 0 {
			t.Errorf("%s refused every shape", row.Display)
		}
	}
	pins := 0
	for _, c := range slices.Concat(small, eighth, bench) {
		if c.grid != "" {
			pins++
		}
	}
	if tally.pinned != pins {
		t.Errorf("COSMA's row ran %d of the %d shapes with a grid pin", tally.pinned, pins)
	}
	if tally.blocked == 0 {
		t.Error("no CARMA plan runs in C blocks: the blocks' sum goes unchecked")
	}
	if tally.banded == 0 {
		t.Error("no pizdaint plan is banded: the band count goes unchecked")
	}
}

// The named tests run every row on the shapes they were written for
// (namedShapes) and require their own row to plan each one.
func TestSUMMACorrectAcrossShapes(t *testing.T) { checkRows(t, []algo.Spec{summa}, summaShapes) }

func TestSUMMAMeasuredMatchesModel(t *testing.T) { checkRows(t, []algo.Spec{summa}, summaModelShapes) }

func TestSUMMAOverlapBitwiseIdentical(t *testing.T) { checkRows(t, []algo.Spec{summa}, overlapShapes) }

func TestCannonCorrect(t *testing.T) { checkRows(t, []algo.Spec{cannon}, cannonShapes) }

func TestCannonMeasuredMatchesModel(t *testing.T) {
	checkRows(t, []algo.Spec{cannon}, cannonModelShapes)
}

func TestC25DCorrect(t *testing.T) { checkRows(t, []algo.Spec{c25d}, c25dShapes) }

func TestC25DMeasuredMatchesModel(t *testing.T) { checkRows(t, []algo.Spec{c25d}, c25dModelShapes) }

func TestCARMACorrectAcrossShapes(t *testing.T) { checkRows(t, []algo.Spec{carma}, carmaShapes) }

func TestAllAlgorithmsAgreeOnOneProblem(t *testing.T) { checkRows(t, Algorithms, agreeShapes) }

// TestCorrectnessProperty makes checkRow's checks, in all four
// configurations, for every row, CARMA's included, on random problems:
// m, n, k ≤ 20, p ≤ 16, and S from 16 words, where a round is one outer
// product, to 2²⁰.
func TestCorrectnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := suiteShape{m: 1 + r.Intn(20), n: 1 + r.Intn(20), k: 1 + r.Intn(20), p: 1 + r.Intn(16), s: 16 + r.Intn(2000)}
		if r.Intn(2) == 0 {
			c.s = 1 << 20
		}
		a, b := matrix.Random(c.m, c.k, r), matrix.Random(c.k, c.n, r)
		want := mulRef(a, b)
		for _, row := range Algorithms {
			if _, err := checkRow(row, c, a, b, want, suiteConfigs); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestModelsScaleToPaperSizes plans every row on the paper's largest
// square problem, 16384³ with S = 2²¹, from 2 048 to 18 432 ranks,
// without executing: a refusal is ErrUnsupportedShape from SUMMA, 2.5D
// or Cannon, Cannon refuses every p that is not a square (no torus, so
// no model of one), every model is finite and positive, and no row's
// average words grow with p by more than 5 %.
func TestModelsScaleToPaperSizes(t *testing.T) {
	const n, s = 16384, 1 << 21
	for _, row := range Algorithms {
		prev := math.Inf(1)
		for _, p := range []int{2048, 4096, 8192, 16384, 18432} {
			pl, err := row.Plan(algo.Config{}, n, n, n, p, s)
			if q := int(math.Sqrt(float64(p))); row.Name == cannon.Name && q*q != p && err == nil {
				t.Errorf("%s p=%d: planned a torus on a non-square p", row.Display, p)
			}
			if err != nil {
				if !mayRefuse[row.Name] || !errors.Is(err, algo.ErrUnsupportedShape) {
					t.Errorf("%s p=%d: %v", row.Display, p, err)
				}
				continue
			}
			mod := pl.Model
			if !(mod.AvgRecv > 0) || math.IsInf(mod.AvgRecv, 0) {
				t.Errorf("%s p=%d: bad model %+v", row.Display, p, mod)
			}
			if mod.AvgRecv > 1.05*prev {
				t.Errorf("%s p=%d: %v words/rank, up from %v", row.Display, p, mod.AvgRecv, prev)
			}
			prev = mod.AvgRecv
		}
	}
}
