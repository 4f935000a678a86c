# GROPHECY++ reproduction — common targets.

GO ?= go

# Minimum total statement coverage `make check` accepts. The suite
# sits near 78%; the gate trips on real coverage regressions without
# flaking on rounding.
COVER_BASELINE ?= 78.0
COVER_PROFILE  ?= out/cover.out

.PHONY: all check build test vet race cover bench bench-json bench-gate smoke smoke-chaos outputs-ab paper csv examples fuzz fuzz-short fmt clean

all: check

# The default verification gate: everything must compile, pass vet,
# pass the full test suite under the race detector, keep total
# coverage at or above COVER_BASELINE, hold the benchmark regression
# gate against the committed baseline, bring up a real grophecyd end
# to end, and run every example program.
check: build vet race cover bench-gate smoke smoke-chaos examples

race:
	$(GO) test -race ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# One testing.B benchmark per table/figure, plus library micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# The same benchmark run, parsed into a machine-readable snapshot at
# the repo root for cross-commit comparison. Bump BENCH when a change
# is expected to move the numbers: `make bench-json BENCH=BENCH_9.json`.
BENCH ?= BENCH_9.json
bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson > $(BENCH)
	@echo "wrote $(BENCH)"

# Benchmark regression gate: re-run the gated hot-path benchmarks and
# diff them against the committed baseline snapshot. Fails on >15%
# ns/op or >10% allocs/op regression of any gated benchmark, or when
# the telemetry-overhead bound is blown (TelemetryOverhead's
# interleaved overhead-pct metric, default max 5 — see
# docs/BENCHMARKS.md for re-baselining and overrides). GATE_BENCH
# narrows the run to the gated names so the gate stays fast; -count=5
# lets the diff gate on the min-of-5 noise floor instead of one noisy
# run. TelemetryOverhead is in the run set for its metric bound but
# not in the ns gate list: its ns/op blends bare and traced work.
BENCH_BASELINE ?= BENCH_9.json
GATE_BENCH = ^Benchmark(EndToEndProjection|EndToEndProjectionTelemetry|TelemetryOverhead|Enumerate|Union|Intersect|TransferPinned|TransferPageable|Fig2TransferSweep|BackendDispatch)$$
bench-gate:
	@mkdir -p out
	$(GO) test -run='^$$' -bench='$(GATE_BENCH)' -benchmem -count=5 ./... | $(GO) run ./cmd/benchjson > out/bench-gate.json
	$(GO) run ./cmd/benchjson diff $(BENCH_BASELINE) out/bench-gate.json

# End-to-end daemon smoke test: build grophecyd, start it on an
# ephemeral port, project a skeleton over HTTP, check the metrics
# moved, and verify SIGTERM drains to a zero exit.
smoke:
	$(GO) run ./internal/tools/smoke

# Chaos/persistence smoke: the daemon (race detector on) under an
# adversarial chaos plan — must stay ready, shed correctly, survive a
# SIGKILL via the snapshot store, and quarantine corrupt snapshots.
smoke-chaos:
	$(GO) run ./internal/tools/smoke -chaos

# Output-compat A/B against revision BASE: run one fixed list of
# grophecy (every app size x backend, clean and under two fault plans,
# plus pipeline.sk), pciecal -trace and paper -all on BASE and on the
# working tree, and fail on any difference in text, JSON, span, metric
# or Chrome trace output. Not part of check, because it needs a BASE:
# `make outputs-ab BASE=HEAD`.
outputs-ab:
	@test -n "$(BASE)" || { echo "usage: make outputs-ab BASE=<rev>" >&2; exit 2; }
	bash scripts/outputs-ab.sh $(BASE)

# Regenerate every table and figure of the paper (plus extensions).
paper:
	$(GO) run ./cmd/paper -all -charts

# Export every experiment series as CSV for plotting.
csv:
	$(GO) run ./cmd/paper -csv out/csv

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/vectoradd
	$(GO) run ./examples/portadvisor
	$(GO) run ./examples/itersweep
	$(GO) run ./examples/tuningstudy
	$(GO) run ./examples/pipeline

# Coverage gate: fail when total statement coverage drops below
# COVER_BASELINE percent. internal/tools holds end-to-end harnesses
# (`make smoke`, `make smoke-chaos`) that run as real programs in this
# same check, so they are excluded from the unit-coverage denominator.
cover:
	@mkdir -p $(dir $(COVER_PROFILE))
	$(GO) test -coverprofile=$(COVER_PROFILE) $$($(GO) list ./... | grep -v /internal/tools/) > /dev/null
	@$(GO) tool cover -func=$(COVER_PROFILE) | awk -v min=$(COVER_BASELINE) '\
		/^total:/ { sub(/%/, "", $$3); \
			if ($$3 + 0 < min + 0) { \
				printf "coverage %s%% below baseline %s%%\n", $$3, min; exit 1 } \
			printf "coverage %s%% (baseline %s%%)\n", $$3, min }'

# 30 seconds of parser fuzzing (seed corpus always runs under `test`).
fuzz:
	$(GO) test -run=xxx -fuzz=FuzzParse -fuzztime=30s ./internal/sklang/

# 10 seconds per fuzz target — quick pre-commit confidence pass.
fuzz-short:
	$(GO) test -run=xxx -fuzz=FuzzParse -fuzztime=10s ./internal/sklang/
	$(GO) test -run=xxx -fuzz=FuzzChromeJSON -fuzztime=10s ./internal/trace/
	$(GO) test -run=xxx -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/store/
	$(GO) test -run=xxx -fuzz=FuzzTraceparent -fuzztime=10s ./internal/trace/
	$(GO) test -run=xxx -fuzz=FuzzProjectRequest -fuzztime=10s ./cmd/grophecyd/
	$(GO) test -run=xxx -fuzz=FuzzBatchRequest -fuzztime=10s ./cmd/grophecyd/

fmt:
	gofmt -w .
	$(GO) run ./cmd/skfmt -w skeletons/*.sk

clean:
	rm -rf out
