# Development targets for the duedate reproduction. Everything is
# stdlib-only Go; no external tools are required beyond the toolchain.

GO ?= go

.PHONY: all build vet test race cover bench bench-hotpath experiments examples clean verify-diff fuzz serve docs-lint server-smoke jobs-smoke serve-allocs autocal-smoke

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Time the metaheuristic hot path and record the numbers as JSON: the
# full evaluators, the incremental delta evaluators (single-machine and
# the parallel genome variant) and the batch core, plus one SA chain step
# over the full and the delta evaluator. The chain-step rows are the ones
# that decide the CPU SA evaluator: the delta rows of the evaluator
# benchmarks time Propose only, a chain step also pays for Commit.
bench-hotpath:
	( $(GO) test -run '^$$' -bench 'BenchmarkEvaluator(CDD|CDDDelta|UCDDCP|Genome)|BenchmarkBatchEvaluator|BenchmarkChainStep' -benchmem -benchtime 1s . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkServe(Solve|Batch)Allocs' -benchmem -benchtime 2000x ./internal/server/ ) \
		| $(GO) run ./cmd/benchjson -out BENCH_evaluator.json

# Cross-engine differential verification: every generator family through
# the evaluator-agreement chain, the exact oracles, the metamorphic
# properties and all registered drivers, then a reduced-trial machine
# matrix forcing every family onto 1, 2 and 3 machines (the parallel
# generalization must hold on every landscape, not just the dedicated
# parallel families). Exits nonzero on any discrepancy.
verify-diff:
	$(GO) run ./cmd/verify -trials 200 -dp-trials 50 -out verify-report.json
	$(GO) run ./cmd/verify -trials 40 -machines 1
	$(GO) run ./cmd/verify -trials 40 -machines 2
	$(GO) run ./cmd/verify -trials 40 -machines 3

# Run each native fuzz target briefly (go test runs one target at a time).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzCDDDeltaVsFull$$' -fuzztime $(FUZZTIME) ./internal/cdd
	$(GO) test -run '^$$' -fuzz '^FuzzUCDDCPDeltaVsFull$$' -fuzztime $(FUZZTIME) ./internal/ucddcp
	$(GO) test -run '^$$' -fuzz '^FuzzParseInstance$$' -fuzztime $(FUZZTIME) ./internal/problem
	$(GO) test -run '^$$' -fuzz '^FuzzBatchEvaluator$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzExactDPVsBrute$$' -fuzztime $(FUZZTIME) ./internal/exact
	$(GO) test -run '^$$' -fuzz '^FuzzSolveFacade$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzAutoPick$$' -fuzztime $(FUZZTIME) ./internal/auto

# Run the batch-solving daemon locally on its default address (:8337).
serve:
	$(GO) run ./cmd/duedated

# Exported-documentation check over every package (revive/golint-style
# exported rule, stdlib-only), plus example coverage on the facade: every
# exported top-level facade function must have a runnable godoc example.
# Fails on any missing doc comment or example.
docs-lint:
	$(GO) run ./cmd/docslint . ./cmd/* ./examples/* ./internal/*
	$(GO) run ./cmd/docslint -examples .

# Calibration pipeline smoke test: tiny autocal sweep into a temp file,
# bit-identical Marshal round-trip, and an end-to-end AUTO solve that
# must route through the exact DP gate with an optimality certificate.
autocal-smoke:
	$(GO) run ./cmd/autocal -smoke

# Serve-path allocation guard: benchmark the steady-state POST /v1/solve
# and /v1/batch paths and fail if allocs/op exceeds the checked-in
# threshold (scripts/serve-allocs-threshold).
serve-allocs:
	scripts/serve-allocs-guard.sh

# End-to-end smoke test of the daemon: build, serve, post one CDD and
# one UCDDCP instance from testdata/server/, assert a cache hit, then
# SIGTERM and require a clean graceful drain.
server-smoke:
	scripts/server-smoke.sh

# End-to-end smoke test of the async job API against a live daemon:
# submit → poll → done, shared-cache agreement with /v1/solve, SSE to
# the terminal result event, DELETE cancellation, job gauges in
# /metrics, then a clean graceful drain.
jobs-smoke:
	scripts/jobs-smoke.sh

# Regenerate the paper's tables and figures (scaled preset, ~minutes).
experiments:
	$(GO) run ./cmd/experiments -exp all -preset scaled -out results/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/ucddcp_compression
	$(GO) run ./examples/exact_oracle
	$(GO) run ./examples/gpu_pipeline
	$(GO) run ./examples/orlib_cdd

clean:
	rm -rf results/ test_output.txt bench_output.txt verify-report.json
