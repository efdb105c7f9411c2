# Developer entry points. CI runs the same targets so local runs and
# the pipeline can never drift apart.

GO ?= go

.PHONY: build test test-short race test-noasm cross-arm64 fault-conformance fuzz-smoke bench bench-layout bench-pair lines

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# test-short runs the tests under -short, whose branches neither test
# nor race reaches: smaller sweeps, and the algorithm suite's
# eighth-scale benchmark shapes on COSMA's row alone.
test-short:
	$(GO) test -short -count=1 ./...

race:
	$(GO) test -race ./...

# test-noasm exercises the portable-only build: every SIMD micro-kernel
# and its assembly is excluded, so the Go 4×4 fallback path must stand
# on its own.
test-noasm:
	$(GO) test -tags noasm ./...

# cross-arm64 vets and builds the arm64 side, whose NEON kernel and Go
# glue share the amd64 dispatch signature but cannot be run on an amd64
# box: asmdecl checks the assembly's frame against its Go declaration,
# and the matrix test binary, which names the tile simd_arm64.go sets,
# is compiled without running.
cross-arm64:
	GOARCH=arm64 $(GO) vet ./internal/matrix
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/matrix

# fault-conformance runs the conformance suite's fault section under
# -race on the four backends (counting, timed, wire loopback, a Unix
# socket mesh): every injected failure class (rank death, message drop,
# delay, straggler) must surface as a prompt error, never a deadlock
# (the suite runs behind hard watchdog timeouts). It fails unless
# exactly 16 fault subtests (4 backends × 4 classes) pass, so a backend
# dropped from the suite fails here instead of shrinking it silently.
fault-conformance:
	@out=$$($(GO) test -race -count=1 -v -run 'TestConformance.*/Fault' ./internal/machine/...); status=$$?; \
	echo "$$out"; \
	n=$$(echo "$$out" | grep -c -- '--- PASS: TestConformance[A-Za-z]*/Fault'); \
	echo "fault-conformance: $$n fault subtests passed, want 16"; \
	test $$status -eq 0 && test $$n -eq 16

# fuzz-smoke gives each fuzz target a short randomized budget beyond
# its checked-in seed corpus; crashers land in testdata/fuzz and fail
# subsequent plain `go test` runs until fixed.
fuzz-smoke:
	$(GO) test -fuzz FuzzFrameDecode -fuzztime 30s -run '^$$' ./internal/machine/wire
	$(GO) test -fuzz FuzzMultiplyHandler -fuzztime 30s -run '^$$' ./internal/serve
	$(GO) test -fuzz FuzzScanFloats -fuzztime 30s -run '^$$' ./internal/serve

# bench is the one harness: the repo benchmark (BENCHMARK.json,
# benchmark/README.md) prints one table of the end-to-end metrics, a
# column per workload, and exits non-zero if any operation failed or
# returned a wrong product. The same command with `-trace 1` prints the
# per-layer rows instead; every performance number the docs quote is a
# row of one of the two.
bench:
	$(GO) run ./benchmark -seed 1 -seconds 5

# bench-layout builds the benchmark as `go run ./benchmark` does and
# prints where the linker put the clock yardstick's closure: its wall
# clock follows its offset mod 64 (ROADMAP item 7), so two builds'
# wall-clock rows compare only at one offset.
bench-layout:
	@mkdir -p .bench_build
	@$(GO) build -o .bench_build/layout ./benchmark
	@addr=$$($(GO) tool nm .bench_build/layout | awk '$$3 == "main.yardstick.func1" { print $$1 }'); \
	test -n "$$addr" || { echo "bench-layout: no main.yardstick.func1 in the benchmark binary"; exit 1; }; \
	echo "main.yardstick.func1 at 0x$$addr: $$(( 0x$$addr % 64 )) mod 64"

# bench-pair reads a wall-clock claim test-side: it builds the root
# package's test binary at BASE (a git worktree in a temporary
# directory, under the working tree's *_bench_test.go) and at the
# working tree, runs the benchmarks matching BENCH in PAIRS alternating
# pairs, and prints per benchmark the median, IQR and wins of ns/op,
# B/op and allocs/op, then both trees' bench-layout lines.
BASE ?= HEAD
BENCH ?= EngineExec
PAIRS ?= 10
bench-pair:
	$(GO) run ./cmd/benchpair '$(BASE)' '$(BENCH)' '$(PAIRS)'

# lines prints the go_lines and test_lines that TestBenchHistoryHead
# counts (the newlines of every .go file outside benchmark/, non-test
# and _test.go), so a BENCH_history.jsonl line copies them from one
# command. It fails, after printing them, while they differ from the
# file's last line.
lines:
	$(GO) test -short -count=1 -run TestBenchHistoryHead -v .
