# Developer entry points. CI runs the same targets so local runs and
# the pipeline can never drift apart.

GO ?= go

.PHONY: build test race test-noasm cross-arm64 fault-conformance fuzz-smoke bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test-noasm exercises the portable-only build: every SIMD micro-kernel
# and its assembly is excluded, so the Go 4×4 fallback path must stand
# on its own.
test-noasm:
	$(GO) test -tags noasm ./...

# cross-arm64 vets and builds the arm64 side, whose NEON kernel and Go
# glue share the amd64 dispatch signature but cannot be run on an amd64
# box: asmdecl checks the assembly's frame against its Go declaration.
cross-arm64:
	GOARCH=arm64 $(GO) vet ./internal/matrix
	GOARCH=arm64 $(GO) build ./...

# fault-conformance runs the transport-semantics suite's fault-injection
# section under -race on all three transports: every injected failure
# class (rank death, message drop, delay, straggler) must surface as a
# prompt error — never a deadlock (the suite runs behind hard watchdog
# timeouts).
fault-conformance:
	$(GO) test -race -run 'TestConformance.*/Fault' -count=1 ./internal/machine/...

# fuzz-smoke gives each fuzz target a short randomized budget beyond
# its checked-in seed corpus; crashers land in testdata/fuzz and fail
# subsequent plain `go test` runs until fixed.
fuzz-smoke:
	$(GO) test -fuzz FuzzFrameDecode -fuzztime 30s -run '^$$' ./internal/machine/wire
	$(GO) test -fuzz FuzzMultiplyHandler -fuzztime 30s -run '^$$' ./internal/serve

# bench is the one harness: the repo benchmark (BENCHMARK.json,
# benchmark/README.md) prints one table of the end-to-end metrics, a
# column per workload, and exits non-zero if any operation failed or
# returned a wrong product. The same command with `-trace 1` prints the
# per-layer rows instead; every performance number the docs quote is a
# row of one of the two.
bench:
	$(GO) run ./benchmark -seed 1 -seconds 5
