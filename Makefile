# Development targets. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race race-engine chaos serve-chaos serve-smoke bench-serve vet lint lint-json lint-sarif lint-fixtures bench-json bench-gate fuzz-smoke obs-overhead trace-golden check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race gate for the parallel solve engine and its core call
# sites: the concurrency-heavy packages, without the full-suite cost.
race-engine:
	$(GO) test -race ./internal/engine/... ./internal/core/...

# Chaos gate: the seeded fault-injection suite (injected panics, NaNs,
# cancellations, and forced non-convergence against the real pipeline)
# plus the packages that implement the recovery paths, under the race
# detector. -count=1 because the injector is process-global state the
# test cache cannot see.
chaos:
	$(GO) test -race -count=1 ./internal/faults/... ./internal/engine/... ./internal/thermal/...

# Service chaos gate: seeded faults (typed errors of every class,
# worker panics, injected latency) driven through the live tecserve
# HTTP pipeline under the race detector, asserting the status-code
# contract, per-request isolation, backpressure, deadline partial
# flush, and the drain state machine, plus the gate drain-vs-acquire
# stress in the engine. -count=1: the fault injector is process-global
# state the test cache cannot see.
serve-chaos:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'TestGateDrain' ./internal/engine/

# Service smoke: build the real tecserve binary, drive every endpoint
# over HTTP, force a 429 through a one-worker/no-queue configuration,
# verify the cross-request solver-cache hit on /metrics, and
# SIGTERM-drain to a clean exit 0.
serve-smoke:
	$(GO) test -count=1 -run 'TestServeBinary' ./cmd/tecserve

# Serving latency snapshot: open-loop load from cmd/tecload against an
# in-process server; the p50/p99/throughput result lines are distilled
# into BENCH_serve.json by the same benchjson -merge flow the solver
# benchmarks use (EXPERIMENTS.md tracks history).
bench-serve:
	@[ -f BENCH_serve.json ] || echo '[]' > BENCH_serve.json
	$(GO) run ./cmd/tecload -self -rate 100 -duration 5s \
		| $(GO) run ./cmd/benchjson -merge BENCH_serve.json > BENCH_serve.json.tmp
	mv BENCH_serve.json.tmp BENCH_serve.json
	@cat BENCH_serve.json

# go vet plus a gofmt gate over every Go file outside testdata (the
# lint fixtures seed their own layouts).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.*')); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

lint:
	$(GO) run ./cmd/teclint ./...

# Machine-readable lint report, checked against the committed baseline
# (which is empty: the tree lints clean; the baseline exists so CI can
# upload the JSON artifact and so a future emergency waiver has a
# documented home). Exit code 2 = teclint itself failed to load the
# tree; 1 = findings beyond the baseline; 0 = clean.
lint-json:
	$(GO) run ./cmd/teclint -format=json -baseline teclint.baseline.json ./... > teclint.json; \
	status=$$?; cat teclint.json; exit $$status

# SARIF 2.1.0 report for code-scanning UIs; CI uploads teclint.sarif
# as an artifact alongside the JSON report. Same exit-code contract as
# lint-json.
lint-sarif:
	$(GO) run ./cmd/teclint -format=sarif ./... > teclint.sarif; \
	status=$$?; cat teclint.sarif; exit $$status

# Fixture gate: lints the seeded-violation fixture packages and checks
# the per-rule finding counts against the committed expectations. A
# refactor that silently kills an analyzer (zero findings where the
# fixtures seed some) fails here even though `make lint` stays green.
lint-fixtures:
	$(GO) run ./cmd/teclint -expect cmd/teclint/testdata/fixture_counts.json internal/lint/testdata/*/

# Benchmark snapshot: runs the Table I and h_kl-sweep engine benchmarks
# (default-path, explicit-SMW, and explicit-direct variants) through
# `go test -bench -json` and distills name / ns/op / allocs into
# BENCH_solver.json (committed; EXPERIMENTS.md tracks history).
# -benchtime=1x because Table I is a full paper reproduction per
# iteration — one timed run is the snapshot. -merge keeps snapshot
# entries a partial run did not re-measure; the temp file exists
# because the merge reads the same file the pipeline writes.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine_(TableI|HklSweep)(_SMW|_Direct)?$$' \
		-benchmem -benchtime=1x -json ./internal/bench ./internal/core \
		| $(GO) run ./cmd/benchjson -merge BENCH_solver.json > BENCH_solver.json.tmp
	mv BENCH_solver.json.tmp BENCH_solver.json
	@cat BENCH_solver.json

# Benchmark regression gate: re-times the SMW fast-path benchmarks and
# fails if any regresses more than 20% in ns/op against the committed
# BENCH_solver.json snapshot. Only the fast variants run — the gate
# must stay cheap enough for CI.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine_(TableI_SMW|HklSweep_SMW)$$' \
		-benchmem -benchtime=1x -json ./internal/bench ./internal/core \
		| $(GO) run ./cmd/benchjson -gate BENCH_solver.json

# Short fuzz runs over every parser fuzz target; catches regressions in
# input handling without the cost of a long campaign. FuzzCFG throws
# arbitrary function bodies at the lint CFG builder, which must never
# panic on code that parses; FuzzDataflow pushes the resulting graphs
# through the fixpoint engine (step-bound termination, state isolation).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseFLP -fuzztime=$(FUZZTIME) -run='^$$' ./internal/floorplan
	$(GO) test -fuzz=FuzzParsePtrace -fuzztime=$(FUZZTIME) -run='^$$' ./internal/power
	$(GO) test -fuzz=FuzzCFG -fuzztime=$(FUZZTIME) -run='^$$' ./internal/lint
	$(GO) test -fuzz=FuzzDataflow -fuzztime=$(FUZZTIME) -run='^$$' ./internal/lint
	$(GO) test -fuzz=FuzzSMWGuard -fuzztime=$(FUZZTIME) -run='^$$' ./internal/sparse

# Observability overhead gate: runs the Table I workload with the obs
# registry off and on, and fails if instrumentation costs more than 5%.
obs-overhead:
	OBS_OVERHEAD=1 $(GO) test -count=1 -run TestObsOverheadOnTableI -v ./internal/bench

# Flight-recorder format gate: the JSONL byte-compat pin (flat traces
# must serialize exactly as before the flight recorder existed), the
# deterministic flight/Perfetto goldens in cmd/tectrace, and the
# concurrent-hierarchy test in the engine. Regenerate the goldens with
#   go test ./cmd/tectrace -update
# after an intentional format change.
trace-golden:
	$(GO) test -count=1 -run 'TestFlatTraceByteCompat|TestPerfettoExport' ./internal/obs
	$(GO) test -count=1 ./cmd/tectrace
	$(GO) test -count=1 -run TestMapTasksCtxFlight ./internal/engine

# The full gate, in the order CI runs it.
check: build vet lint lint-fixtures test trace-golden race chaos serve-chaos serve-smoke
