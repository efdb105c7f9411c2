package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cosma"
	"cosma/internal/algo"
	"cosma/internal/comm"
	"cosma/internal/grid"
	"cosma/internal/layout"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// replayReps is how many times each layer replay runs; the median is
// reported and the first repetition warms pools and arenas.
const replayReps = 5

// Tags of the replayed collectives, apart per operand like the
// schedule's own.
const (
	tagA = 1 << 20
	tagB = 2 << 20
	tagC = 3 << 20
)

// rankPart is one rank's share of the COSMA schedule, rebuilt from the
// plan's public Decomposition with the layout package the schedule
// itself uses: its C tile, its k slab, who owns which k range of the A
// and B panels, and the round segments. The comm replay checks this
// reconstruction against the real run's word and message counters.
type rankPart struct {
	id, im, in, ik   int
	rows, cols, slab layout.Range
	aParts, bParts   []layout.Range
	segs             []layout.Range
}

func (rp rankPart) dm() int { return rp.rows.Len() }
func (rp rankPart) dn() int { return rp.cols.Len() }

// ownsA reports whether the rank is the broadcast root of the A panel's
// k range starting at lo; ownsB likewise for B.
func (rp rankPart) ownsA(lo int) bool { return owner(rp.aParts, lo) == rp.in }
func (rp rankPart) ownsB(lo int) bool { return owner(rp.bParts, lo) == rp.im }

func owner(parts []layout.Range, x int) int {
	return sort.Search(len(parts), func(i int) bool { return parts[i].Hi > x })
}

// schedule is the geometry of one planned multiplication.
type schedule struct {
	sh    shape
	g     grid.Grid
	ranks []rankPart
}

func scheduleOf(sh shape, d cosma.Decomposition) schedule {
	sc := schedule{sh: sh, g: grid.Grid{Pm: d.GridPm, Pn: d.GridPn, Pk: d.GridPk}}
	for id := 0; id < sc.g.Ranks(); id++ {
		im, in, ik := sc.g.Coords(id)
		rp := rankPart{
			id: id, im: im, in: in, ik: ik,
			rows: layout.Block(sh.m, sc.g.Pm, im),
			cols: layout.Block(sh.n, sc.g.Pn, in),
			slab: layout.Block(sh.k, sc.g.Pk, ik),
		}
		rp.aParts = layout.Split(rp.slab.Len(), sc.g.Pn)
		rp.bParts = layout.Split(rp.slab.Len(), sc.g.Pm)
		// Rounds break at every ownership boundary of either panel and
		// then every StepSize outer products.
		cuts := []int{0, rp.slab.Len()}
		for _, r := range rp.aParts {
			cuts = append(cuts, r.Lo)
		}
		for _, r := range rp.bParts {
			cuts = append(cuts, r.Lo)
		}
		sort.Ints(cuts)
		for i := 0; i+1 < len(cuts); i++ {
			for lo := cuts[i]; lo < cuts[i+1]; lo += d.StepSize {
				rp.segs = append(rp.segs, layout.Range{Lo: lo, Hi: min(lo+d.StepSize, cuts[i+1])})
			}
		}
		sc.ranks = append(sc.ranks, rp)
	}
	return sc
}

// onRanks runs fn for every working rank on its own goroutine, as the
// simulated machine does, and returns the wall time of the slowest.
func (sc schedule) onRanks(fn func(rp rankPart)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, rp := range sc.ranks {
		wg.Add(1)
		go func(rp rankPart) {
			defer wg.Done()
			fn(rp)
		}(rp)
	}
	wg.Wait()
	return time.Since(start)
}

// replay times fn replayReps times under a span each and returns the
// median in milliseconds.
func replay(tr *tracer, name string, fn func() time.Duration) float64 {
	var ms []float64
	for i := 0; i < replayReps; i++ {
		id := tr.begin(0, 0, name)
		ms = append(ms, millis(fn()))
		tr.end(id)
	}
	return median(ms)
}

// perCall times n calls of fn and returns the mean of one.
func perCall(tr *tracer, name string, n int, fn func()) time.Duration {
	id := tr.begin(0, 0, name)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	d := time.Since(start) / time.Duration(n)
	tr.end(id)
	return d
}

func ones(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1
	}
	return xs
}

// kernelPeak is the packed kernel's rate with every core busy: one
// single-thread 512³ multiply per core at once, best of three.
func kernelPeak(tr *tracer) float64 {
	const n = 512
	cores := runtime.GOMAXPROCS(0)
	type job struct {
		k       *matrix.Kernel
		c, a, b *matrix.Dense
	}
	jobs := make([]job, cores)
	for i := range jobs {
		jobs[i] = job{matrix.NewKernel(1), matrix.New(n, n), matrix.FromSlice(n, n, ones(n*n)), matrix.FromSlice(n, n, ones(n*n))}
	}
	best := 0.0
	for rep := 0; rep < 4; rep++ {
		id := tr.begin(0, 0, "Kernel.Mul 512^3 x cores")
		var wg sync.WaitGroup
		start := time.Now()
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				j.k.Mul(j.c, j.a, j.b)
			}(j)
		}
		wg.Wait()
		rate := float64(cores) * 2 * n * n * n / time.Since(start).Seconds() / 1e9
		tr.end(id)
		if rep > 0 && rate > best { // the first repetition sizes the pack buffers
			best = rate
		}
	}
	return best
}

// matrixAlgoLayers replays the compute and copy share of one Exec
// through the exported functions the schedule calls: the kernel on every
// round's panels, View.Pack of every owned panel chunk into a loaned
// buffer, Arena.Clone of every input word once in rank-tile pieces, and
// the assembly of the C tiles into a fresh m×n matrix.
func (sc schedule) matrixAlgoLayers(tr *tracer, a, b *cosma.Matrix, out measured) {
	threads := max(1, runtime.GOMAXPROCS(0)/len(sc.ranks))
	type local struct {
		kern       *matrix.Kernel
		c          *matrix.Dense
		abuf, bbuf []float64
		myA, myB   *matrix.Dense
	}
	locals := make([]local, len(sc.ranks))
	arena := algo.NewArena(sc.sh.p)
	clone := func(rp rankPart) (myA, myB *matrix.Dense) {
		ap, bp := rp.aParts[rp.in], rp.bParts[rp.im]
		return arena.Clone(rp.id, a.View(rp.rows.Lo, rp.slab.Lo+ap.Lo, rp.dm(), ap.Len())),
			arena.Clone(rp.id, b.View(rp.slab.Lo+bp.Lo, rp.cols.Lo, bp.Len(), rp.dn()))
	}
	var bytes, flops float64
	for i, rp := range sc.ranks {
		step := 0
		for _, seg := range rp.segs {
			step = max(step, seg.Len())
			flops += 2 * float64(rp.dm()) * float64(rp.dn()) * float64(seg.Len())
			// Computed, not measured: each round reads both panels and
			// reads and writes the C tile.
			bytes += 8 * float64(rp.dm()*seg.Len()+seg.Len()*rp.dn()+2*rp.dm()*rp.dn())
		}
		l := &locals[i]
		l.kern = matrix.NewKernel(threads)
		l.c = matrix.New(rp.dm(), rp.dn())
		l.abuf, l.bbuf = ones(rp.dm()*step), ones(step*rp.dn())
		l.myA, l.myB = clone(rp)
	}

	kernelMs := replay(tr, "replay Kernel.Mul", func() time.Duration {
		return sc.onRanks(func(rp rankPart) {
			l := &locals[rp.id]
			for _, seg := range rp.segs {
				l.kern.Mul(l.c,
					matrix.FromSlice(rp.dm(), seg.Len(), l.abuf[:rp.dm()*seg.Len()]),
					matrix.FromSlice(seg.Len(), rp.dn(), l.bbuf[:seg.Len()*rp.dn()]))
			}
		})
	})
	out["matrix.kernel_ms"] = kernelMs
	out["matrix.kernel_gflops"] = flops / (kernelMs / 1e3) / 1e9
	out["matrix.flops_per_byte"] = flops / bytes

	out["matrix.pack_ms"] = replay(tr, "replay View.Pack", func() time.Duration {
		return sc.onRanks(func(rp rankPart) {
			l := &locals[rp.id]
			for _, seg := range rp.segs {
				if rp.ownsA(seg.Lo) {
					lo := seg.Lo - rp.aParts[rp.in].Lo
					machine.Release(l.myA.View(0, lo, rp.dm(), seg.Len()).Pack(machine.Loan(rp.dm() * seg.Len())))
				}
				if rp.ownsB(seg.Lo) {
					lo := seg.Lo - rp.bParts[rp.im].Lo
					machine.Release(l.myB.View(lo, 0, seg.Len(), rp.dn()).Pack(machine.Loan(seg.Len() * rp.dn())))
				}
			}
		})
	})

	out["algo.clone_in_ms"] = replay(tr, "replay Arena.Clone", func() time.Duration {
		arena.Reset()
		return sc.onRanks(func(rp rankPart) { clone(rp) })
	})

	out["algo.assemble_ms"] = replay(tr, "replay assemble", func() time.Duration {
		start := time.Now()
		c := matrix.New(sc.sh.m, sc.sh.n)
		for _, rp := range sc.ranks {
			if rp.ik == 0 {
				c.View(rp.rows.Lo, rp.cols.Lo, rp.dm(), rp.dn()).CopyFrom(locals[rp.id].c)
			}
		}
		return time.Since(start)
	})
}

// commLayer replays the communication of one Exec and nothing else: the
// same groups, message sizes and round order through comm.PipelineRounds
// and Group.Reduce on a counting machine, with loaned buffers standing
// in for packed panels. The replay must move exactly the words and
// messages the real run's report counted, or the benchmark's copy of
// the schedule has drifted and the run fails.
func (sc schedule) commLayer(tr *tracer, real *cosma.Report, out measured) error {
	mach := machine.New(sc.sh.p)
	tiles := make([][]float64, len(sc.ranks))
	for i, rp := range sc.ranks {
		tiles[i] = make([]float64, rp.dm()*rp.dn())
	}
	program := func(r *machine.Rank) error {
		if r.ID() >= len(sc.ranks) {
			return nil
		}
		rp := sc.ranks[r.ID()]
		rowGroup := comm.NewGroup(r, sc.g.RowGroup(rp.in, rp.ik))
		colGroup := comm.NewGroup(r, sc.g.ColGroup(rp.im, rp.ik))
		fiber := comm.NewGroup(r, sc.g.FiberGroup(rp.im, rp.in))
		startA := func(seg layout.Range) *comm.Pending {
			var chunk []float64
			if rp.ownsA(seg.Lo) {
				chunk = machine.Loan(rp.dm() * seg.Len())
			}
			return colGroup.IBcast(owner(rp.aParts, seg.Lo), chunk, tagA+seg.Lo)
		}
		startB := func(seg layout.Range) *comm.Pending {
			var chunk []float64
			if rp.ownsB(seg.Lo) {
				chunk = machine.Loan(seg.Len() * rp.dn())
			}
			return rowGroup.IBcast(owner(rp.bParts, seg.Lo), chunk, tagB+seg.Lo)
		}
		release := func(_ layout.Range, aChunk, bChunk []float64) {
			machine.Release(aChunk)
			machine.Release(bChunk)
		}
		if err := comm.PipelineRounds(r, rp.segs, false, startA, startB, release); err != nil {
			return err
		}
		if sum := fiber.Reduce(0, tiles[rp.id], tagC); sum != nil {
			machine.Release(sum)
		}
		return nil
	}
	var runErr error
	out["comm.collective_ms"] = replay(tr, "replay collectives", func() time.Duration {
		start := time.Now()
		if err := mach.Run(program); err != nil {
			runErr = err
		}
		return time.Since(start)
	})
	if runErr != nil {
		return runErr
	}
	if mach.TotalVolume() != real.Total || mach.MaxMessages() != real.MaxMsgs || mach.MaxRecv() != real.MaxRecv {
		return fmt.Errorf("comm replay moved %d words (max recv %d, max msgs %d) but the real run moved %d (%d, %d)",
			mach.TotalVolume(), mach.MaxRecv(), mach.MaxMessages(), real.Total, real.MaxRecv, real.MaxMsgs)
	}

	// Single collectives at this workload's group sizes and message
	// sizes. A group of one is the degenerate collective the schedule
	// performs when that grid dimension is 1.
	first := sc.ranks[0]
	panel := first.dm() * first.segs[0].Len()
	out["comm.bcast_us"] = collectiveMicros(tr, "Group.Bcast", sc.g.Pn, func(g *comm.Group, i int) {
		var data []float64
		if g.Index() == 0 {
			data = machine.Loan(panel)
		}
		machine.Release(g.Bcast(0, data, i))
	})
	tile := make([]float64, first.dm()*first.dn())
	out["comm.reduce_us"] = collectiveMicros(tr, "Group.Reduce", sc.g.Pk, func(g *comm.Group, i int) {
		if sum := g.Reduce(0, tile, i); sum != nil {
			machine.Release(sum)
		}
	})

	return machineLayer(tr, sc.sh.p, panel, out)
}

// machineLayer times the simulated machine itself: an empty program
// through Machine.Run on p ranks, and a two-rank ping-pong of
// panel-sized messages.
func machineLayer(tr *tracer, p, panel int, out measured) error {
	mach := machine.New(p)
	out["machine.run_spawn_us"] = micros(perCall(tr, "Machine.Run empty", 200, func() {
		mach.Run(func(*machine.Rank) error { return nil })
	}))
	const trips = 200
	pair := machine.New(2)
	id := tr.begin(0, 0, "ping-pong")
	start := time.Now()
	err := pair.Run(func(r *machine.Rank) error {
		if r.ID() == 1 {
			for i := 0; i < trips; i++ {
				r.SendOwned(0, i, r.Recv(0, i))
			}
			return nil
		}
		buf := machine.Loan(panel)
		for i := 0; i < trips; i++ {
			r.SendOwned(1, i, buf)
			buf = r.Recv(1, i)
		}
		machine.Release(buf)
		return nil
	})
	out["machine.sendrecv_us"] = micros(time.Since(start) / (2 * trips))
	tr.end(id)
	return err
}

// collectiveMicros times one collective over a group of size members on
// its own machine: the mean of calls back-to-back calls.
func collectiveMicros(tr *tracer, name string, size int, call func(g *comm.Group, i int)) float64 {
	const calls = 100
	mach := machine.New(size)
	members := make([]int, size)
	for i := range members {
		members[i] = i
	}
	id := tr.begin(0, 0, name)
	start := time.Now()
	mach.Run(func(r *machine.Rank) error {
		g := comm.NewGroup(r, members)
		for i := 0; i < calls; i++ {
			call(g, i)
		}
		return nil
	})
	d := time.Since(start) / calls
	tr.end(id)
	return micros(d)
}

// planLayers times what happens before the first product: the grid fit
// alone, a plan-cache miss on fresh engines, and a plan-cache hit.
func planLayers(ctx context.Context, tr *tracer, es *engineSide, out measured) error {
	sh := es.sh
	out["grid.fit_us"] = micros(perCall(tr, "grid.Fit", replayReps, func() {
		grid.Fit(sh.m, sh.n, sh.k, sh.p, sh.s, cosma.DefaultDelta)
	}))
	var miss []float64
	for i := 0; i < replayReps; i++ {
		eng, err := cosma.NewEngine(sh.engineOptions()...)
		if err != nil {
			return err
		}
		miss = append(miss, micros(perCall(tr, "Engine.Plan miss", 1, func() { eng.Plan(ctx, sh.m, sh.n, sh.k) })))
	}
	out["engine.plan_miss_us"] = median(miss)
	out["engine.plan_hit_ns"] = float64(perCall(tr, "Engine.Plan hit", 10000, func() { es.eng.Plan(ctx, sh.m, sh.n, sh.k) }))
	return nil
}

// sideRuns is how many warm executions each optional-feature engine is
// timed for.
const sideRuns = 15

// optionLayers times the same shape on engines with one option changed
// each — ABFT verification, overlap, autotuned kernels — over the
// default engine: what the option costs or leaves on the table. The two
// engines take turns, one execution each, so that a slow stretch of the
// box lands on both.
func optionLayers(ctx context.Context, tr *tracer, es *engineSide, out measured) (total tally, err error) {
	timeOne := func(name string, eng *cosma.Engine) (ms float64, c *cosma.Matrix) {
		id := tr.begin(0, 0, name)
		t := time.Now()
		c, _, err := eng.Exec(ctx, es.a, es.b)
		ms = millis(time.Since(t))
		tr.end(id)
		total.attempted++
		if err != nil {
			total.failed++
		}
		return ms, c
	}
	for _, o := range []struct {
		metric   string
		opt      cosma.Option
		sameBits bool // autotune may pick an FMA variant that rounds differently
	}{
		{"engine.abft_over_plain", cosma.WithVerification(true), true},
		{"engine.overlap_over_sync", cosma.WithOverlap(true), true},
		{"engine.autotune_over_default", cosma.WithAutotune(true), false},
	} {
		eng, err := cosma.NewEngine(es.sh.engineOptions(o.opt)...)
		if err != nil {
			return total, err
		}
		var plainMs, changedMs []float64
		var last *cosma.Matrix
		for i := 0; i < warmups+sideRuns; i++ {
			p, _ := timeOne("Engine.Exec", es.eng)
			c, product := timeOne("Engine.Exec "+o.metric, eng)
			if i >= warmups {
				plainMs, changedMs = append(plainMs, p), append(changedMs, c)
			}
			last = product
		}
		if last != nil && (cosma.VerifyProduct(es.a, es.b, last) != nil || (o.sameBits && !sameBits(last, es.ref))) {
			total.failed++
		}
		out[o.metric] = median(changedMs) / median(plainMs)
	}
	return total, nil
}

// reportLayers grades what the system reports about the run: the
// counters of the counting transport, the model against them, the
// Theorem 2 bound against them, the α-β-γ prediction against the event
// clock, and every other registered algorithm's critical path on the
// same shape and network. An algorithm that cannot plan or run the
// shape reports 0.
func reportLayers(ctx context.Context, tr *tracer, es *engineSide, d cosma.Decomposition, counted *cosma.Report, out measured) error {
	sh := es.sh
	out["machine.max_msgs"] = float64(counted.MaxMsgs)
	out["machine.total_words"] = float64(counted.Total)
	out["machine.avg_recv_words"] = counted.AvgRecv
	out["machine.recv_imbalance"] = float64(counted.MaxRecv) / counted.AvgRecv
	out["core.rounds"] = float64(d.Rounds)
	out["core.ranks_used"] = float64(d.RanksUsed)
	out["core.model_over_measured_words"] = counted.Model.MaxRecv / float64(counted.MaxRecv)
	out["bound.words_over_bound"] = float64(counted.MaxRecv) / cosma.ParallelLowerBound(sh.m, sh.n, sh.k, sh.p, sh.s)

	timed, err := es.modelled(ctx, tr, "cosma")
	if err != nil {
		return err
	}
	out["perfmodel.pred_over_crit"] = timed.PredictedAsExecuted() / timed.CritPathTime
	best := 0.0
	for _, alg := range []struct{ name, metric string }{
		{"summa", "baselines.summa_crit_path_ms"},
		{"2.5d", "baselines.c25d_crit_path_ms"},
		{"carma", "baselines.carma_crit_path_ms"},
		{"cannon", "baselines.cannon_crit_path_ms"},
		{"caps", "strassen.caps_crit_path_ms"},
	} {
		out[alg.metric] = 0
		rep, err := es.modelled(ctx, tr, alg.name)
		if errors.Is(err, errWrongProduct) {
			return err
		}
		if err != nil {
			continue
		}
		out[alg.metric] = rep.CritPathTime * 1e3
		if best == 0 || rep.CritPathTime < best {
			best = rep.CritPathTime
		}
	}
	out["baselines.cosma_over_best_crit"] = 0
	if best > 0 {
		out["baselines.cosma_over_best_crit"] = timed.CritPathTime / best
	}
	return nil
}
