package main

import (
	"cosma"
	"cosma/internal/workload"
)

// shape is one multiplication under one engine configuration: m×k by
// k×n on p simulated ranks with s words of memory each.
type shape struct {
	m, n, k, p, s int
}

func (sh shape) flops() float64 { return 2 * float64(sh.m) * float64(sh.n) * float64(sh.k) }

func (sh shape) engineOptions(extra ...cosma.Option) []cosma.Option {
	return append([]cosma.Option{cosma.WithProcs(sh.p), cosma.WithMemory(sh.s)}, extra...)
}

// inputs generates the operand pair of sh from the seed.
func (sh shape) inputs(seed int64) (a, b *cosma.Matrix) {
	return cosma.RandomMatrix(sh.m, sh.k, 2*seed), cosma.RandomMatrix(sh.k, sh.n, 2*seed+1)
}

// serveMix is the traffic the serving side of every run draws from: a
// catalog of shapes, Zipf popularity, and a cosmad configured the way
// cmd/cosmad would be for matrices this small. The catalog comes from
// its own fixed seed: the run's seed decides the matrix values and the
// order the callers draw shapes in, not how large the requests are, so
// runs with different seeds measure the same traffic.
type serveMix struct {
	catalogSeed    uint64
	shapes         int
	zipfS          float64
	minDim, maxDim int
	procs, shards  int
	clients        int // closed-loop keep-alive callers: the box's cores
}

func (sm serveMix) memory() int { return 3 * sm.maxDim * sm.maxDim }

// catalog returns the mix's shapes, hottest first.
func (sm serveMix) catalog() []workload.Dims {
	return workload.NewGenerator(workload.GenConfig{
		Seed: sm.catalogSeed, Shapes: sm.shapes, ZipfS: sm.zipfS, MinDim: sm.minDim, MaxDim: sm.maxDim,
	}).Catalog()
}

// shapeOf is catalog entry d under the server's engine options.
func (sm serveMix) shapeOf(d workload.Dims) shape {
	return shape{m: d.M, n: d.N, k: d.K, p: sm.procs, s: sm.memory()}
}

// spec is one named workload. The engine shape is what the engine-side
// layers are measured on, the mix what the serving-side layers are; the
// operation the end-to-end metrics time is an Engine.Exec of the shape,
// or with http set an HTTP request of the mix.
type spec struct {
	name   string
	why    string
	http   bool
	engine shape
	mix    serveMix
}

var defaultMix = serveMix{catalogSeed: 1, shapes: 12, zipfS: 1.1, minDim: 32, maxDim: 192, procs: 4, shards: 4, clients: 2}

// workloads are the four rows of BENCHMARK.json. The three engine rows
// keep the flops (or, for tall-k, the class) and change what the
// schedule has to do around them; serve-mix bypasses the kernel almost
// entirely.
var workloads = []spec{
	{
		name:   "square-roomy",
		why:    "1024^3 on p=16 with plentiful memory: grid 2x2x4, two rounds of large broadcasts and a 4-deep fiber reduction, so the kernel does most of the work",
		engine: shape{1024, 1024, 1024, 16, 1 << 20},
		mix:    defaultMix,
	},
	{
		name:   "square-tight",
		why:    "same flops with S=69632: grid 4x4x1, 128 rounds of skinny panels, broadcast-only, so per-message and per-call packing costs dominate the kernel's peak rate",
		engine: shape{1024, 1024, 1024, 16, 69632},
		mix:    defaultMix,
	},
	{
		name:   "tall-k",
		why:    "128x128x65536, the paper's largeK class: grid 1x1x15, 134 MB of input cloned and packed for 2.1 Gflop and one 15-rank reduction, so copies dominate and there is no broadcast",
		engine: shape{128, 128, 65536, 16, 1 << 18},
		mix:    defaultMix,
	},
	{
		name:   "serve-mix",
		why:    "two closed-loop keep-alive clients post a Zipf mix of 12 small seeded shapes as JSON to cosmad on loopback: codec and batch window are the work, the kernel about 2 percent",
		http:   true,
		engine: defaultMix.shapeOf(defaultMix.catalog()[0]),
		mix:    defaultMix,
	},
}

func findWorkload(name string) (spec, int, bool) {
	for i, w := range workloads {
		if w.name == name {
			return w, i, true
		}
	}
	return spec{}, 0, false
}
