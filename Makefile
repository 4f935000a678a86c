# GROPHECY++ reproduction — common targets.

GO ?= go

# Minimum total statement coverage `make check` accepts. The suite
# sits near 78%; the gate trips on real coverage regressions without
# flaking on rounding.
COVER_BASELINE ?= 78.0
COVER_PROFILE  ?= out/cover.out

# The coverage denominator: internal/tools holds end-to-end harnesses
# (`make smoke`, `make smoke-chaos`) that run as real programs in
# `make check`, so they are left out. They have no tests, so a race
# run over this list loses nothing either.
COVER_PKGS = $$($(GO) list ./... | grep -v /internal/tools/)

# Fails when the total statement coverage in COVER_PROFILE is below
# COVER_BASELINE percent.
COVER_GATE = $(GO) tool cover -func=$(COVER_PROFILE) | awk -v min=$(COVER_BASELINE) '\
	/^total:/ { sub(/%/, "", $$3); \
		if ($$3 + 0 < min + 0) { \
			printf "coverage %s%% below baseline %s%%\n", $$3, min; exit 1 } \
		printf "coverage %s%% (baseline %s%%)\n", $$3, min }'

.PHONY: all check build test vet race cover race-cover bench bench-json bench-gate smoke smoke-chaos outputs-ab paper csv examples fuzz fuzz-short fmt clean

all: check

# The default verification gate: everything must compile, pass vet,
# pass the full test suite under the race detector, keep total
# coverage at or above COVER_BASELINE, bring up a real grophecyd end
# to end, run every example program, and hold the benchmark regression
# gate against the last commit (BASE, default HEAD). The gate runs
# last, so a gate failure never hides the steps before it. After a
# commit, gate it against its parent: `make check BASE=HEAD~1`.
check: build vet race-cover smoke smoke-chaos examples bench-gate

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
# the repo root. BENCH names a new file, so that no committed snapshot
# is overwritten: `make bench-json BENCH=BENCH_11.json`.
bench-json:
	@test -n "$(BENCH)" || { echo "usage: make bench-json BENCH=BENCH_<n>.json" >&2; exit 2; }
	$(GO) test -run='^$$' -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson > $(BENCH)
	@echo "wrote $(BENCH)"

# Benchmark regression gate: an interleaved same-host A/B of the
# working tree against revision BASE (default HEAD). scripts/bench-ab.sh
# builds both sides' test binaries, runs GATE_BENCH on each PAIRS times
# (default 10), -count=1, alternating which side goes first, and
# `benchjson ab` fails when a benchmark's median ns/op rose more than
# 15% or its median allocs/op more than 10% against BASE, when a
# benchmark ran on BASE but not on the working tree, or when the median
# TelemetryOverhead overhead-pct exceeds 5. See docs/BENCHMARKS.md.
GATE_BENCH = ^Benchmark(EndToEndProjection|EndToEndProjectionTelemetry|TelemetryOverhead|Enumerate|Union|Intersect|TransferPinned|TransferPageable|Fig2TransferSweep|BackendDispatch|ProjectWarm|ParsePaperWorkloads|ReportJSON|BatchDAGStream)$$
bench-gate: BASE ?= HEAD
bench-gate:
	BENCH='$(GATE_BENCH)' bash scripts/bench-ab.sh $(BASE)

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

# Coverage gate: fail when total statement coverage over COVER_PKGS
# drops below COVER_BASELINE percent.
cover:
	@mkdir -p $(dir $(COVER_PROFILE))
	$(GO) test -coverprofile=$(COVER_PROFILE) $(COVER_PKGS) > /dev/null
	@$(COVER_GATE)

# race and cover in one pass of the suite, as `make check` runs them:
# the race detector over COVER_PKGS, gated on the coverage it records.
race-cover:
	@mkdir -p $(dir $(COVER_PROFILE))
	$(GO) test -race -coverprofile=$(COVER_PROFILE) $(COVER_PKGS)
	@$(COVER_GATE)

# 30 seconds of parser fuzzing (seed corpus always runs under `test`).
fuzz:
	$(GO) test -run=xxx -fuzz=FuzzParse -fuzztime=30s ./internal/sklang/

# 10 seconds per fuzz target — quick pre-commit confidence pass. Each
# line bounds how long a worker may minimize a new input: unbounded,
# minimizing ate the rest of the 10 s after the first few seconds (the
# HTTP targets, where each exec is a request to a live daemon, and
# FuzzChromeJSON).
fuzz-short:
	$(GO) test -run=xxx -fuzz=FuzzParse -fuzztime=10s -fuzzminimizetime=100x ./internal/sklang/
	$(GO) test -run=xxx -fuzz=FuzzLexMatchesReference -fuzztime=10s -fuzzminimizetime=100x ./internal/sklang/
	$(GO) test -run=xxx -fuzz=FuzzChromeJSON -fuzztime=10s -fuzzminimizetime=100x ./internal/trace/
	$(GO) test -run=xxx -fuzz=FuzzSnapshotDecode -fuzztime=10s -fuzzminimizetime=100x ./internal/store/
	$(GO) test -run=xxx -fuzz=FuzzTraceparent -fuzztime=10s -fuzzminimizetime=100x ./internal/trace/
	$(GO) test -run=xxx -fuzz=FuzzProjectRequest -fuzztime=10s -fuzzminimizetime=100x ./cmd/grophecyd/
	$(GO) test -run=xxx -fuzz=FuzzBatchRequest -fuzztime=10s -fuzzminimizetime=100x ./cmd/grophecyd/

fmt:
	gofmt -w .
	$(GO) run ./cmd/skfmt -w skeletons/*.sk

clean:
	rm -rf out
