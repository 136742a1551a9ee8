# Local CI gate for the PreciseTracer reproduction.
#
#   make ci      # everything below, in order
#   make race    # the concurrency gate for the sharded correlator
#
# The race and bench targets exist because of the concurrent correlation
# pipeline (core.Options.Workers > 1): every change to core, flow, ranker
# or engine must keep `go test -race ./...` clean and should compare the
# repository benchmark before and after: bash bench/run.sh -out a.json on
# each side, then bash bench/run.sh -compare a.json b.json (see
# bench/README.md).

GO ?= go

# Minimum combined statement coverage for the correlator's concurrency
# core (internal/core + internal/flow + internal/live) plus the live
# analytics tier (internal/sketch + internal/export) and the pipeline's
# handoff primitive (internal/ring) — the packages the sharded batch
# pipeline, the sharded push-mode session (including the SealAfter
# continuous mode), the ring-buffered dispatch, the online monitor and
# its bounded-memory sketches and export sinks live in.
COVER_MIN ?= 85

.PHONY: ci vet lint build test race cover bench bench-allocs bench-promote bench-scaling bench-smoke soak soak-short

ci: vet lint build test race cover bench bench-allocs bench-smoke soak-short

vet:
	$(GO) vet ./...

# staticcheck is the second linter gate (hosted CI installs it; see
# .github/workflows/ci.yml). Local runs without the binary skip it with a
# note instead of failing, so `make ci` works on a hermetic box.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (hosted CI runs it — go install honnef.co/go/tools/cmd/staticcheck@2025.1)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=coverage.out ./internal/core ./internal/flow ./internal/live ./internal/sketch ./internal/export ./internal/ring
	@$(GO) tool cover -func=coverage.out | awk -v min=$(COVER_MIN) '/^total:/ { pct = $$3; sub(/%/, "", pct); printf "coverage: %s%% of statements in internal/core+internal/flow+internal/live+internal/sketch+internal/export+internal/ring (minimum %s%%)\n", pct, min; exit (pct + 0 < min + 0) }'

bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Allocation regression gates for the streaming-engine hot path and the
# export sinks' encode. Each BenchmarkSessionPush variant has its own
# budget: the measured figure on the reference box plus ~25-30% headroom
# for machine variance — an accidental per-record allocation costs ~37k
# allocs/op here and blows either budget immediately.
#
#   seq-close-driven: 53,847 measured with workers landing results under
#   a mutex (53,849 with the collector goroutine and results ring; down
#   from 178,250 before dense interned identities, ~68k before the
#   worker-pool ranker/engine reuse).
ALLOCS_BUDGET ?= 65000
#   seq-continuous (SealAfter horizon, per-component forced seals): 63,552
#   measured without the collector (63,550 with it), down from ~64.4k
#   (64,447) when every release copied the held backlog, ~64k after the
#   worker-pool reuse + flow key recycling, and ~139k when every sealed
#   component rebuilt its ranker and engine.
ALLOCS_BUDGET_CONTINUOUS ?= 77500
#   export-sinks (BenchmarkExportSinks: one RUBiS graph through the OTLP
#   exporter and the DumpWriter): 0 measured with the append writers, 715
#   with the span tree + encoding/json and the fmt dump. One allocation per
#   span or attribute would cost ~15-100 allocs/op.
ALLOCS_BUDGET_EXPORT ?= 4

bench-allocs:
	@$(GO) test -run '^$$' -bench '^BenchmarkExportSinks$$' -benchmem -benchtime=2000x ./internal/export \
	| awk -v budget=$(ALLOCS_BUDGET_EXPORT) ' \
		/^BenchmarkExportSinks/ { a = $$(NF-1) + 0; found++; \
			printf "bench-allocs: export-sinks %d allocs/op (budget %d)\n", a, budget; \
			if (a > budget) bad = 1 } \
		END { \
			if (found != 1) { printf "bench-allocs: expected 1 export benchmark result, got %d\n", found; exit 1 } \
			exit bad \
		}'
	@$(GO) test -run '^$$' -bench 'BenchmarkSessionPush/seq-(close-driven|continuous)' \
		-benchmem -benchtime=3x . \
	| awk -v budget=$(ALLOCS_BUDGET) -v cbudget=$(ALLOCS_BUDGET_CONTINUOUS) ' \
		/BenchmarkSessionPush\/seq-close-driven/ { a = $$(NF-1) + 0; found++; \
			printf "bench-allocs: seq-close-driven %d allocs/op (budget %d)\n", a, budget; \
			if (a > budget) bad = 1 } \
		/BenchmarkSessionPush\/seq-continuous/ { a = $$(NF-1) + 0; found++; \
			printf "bench-allocs: seq-continuous %d allocs/op (budget %d)\n", a, cbudget; \
			if (a > cbudget) bad = 1 } \
		END { \
			if (found != 2) { printf "bench-allocs: expected 2 benchmark results, got %d\n", found; exit 1 } \
			exit bad \
		}'

# Scaling-efficiency gate: parallel efficiency (speedup/workers) at the
# largest benchmark scale with workers=NumCPU must stay above
# SCALING_FLOOR. Skips itself on single-CPU hosts and under -race; the
# hosted bench job runs it on every push (see .github/workflows/ci.yml).
SCALING_FLOOR ?= 0.30

bench-scaling:
	BENCH_SCALING_GATE=1 SCALING_FLOOR=$(SCALING_FLOOR) \
		$(GO) test -run TestScalingEfficiencyGate -count=1 -v -timeout 10m .

# Smoke test of the repository benchmark (bench/ is a module of its own,
# so `go test ./...` never sees it): all five workloads at a tiny scale,
# each pass hashed against CorrelateTrace — over loopback for the wire
# workloads — and judged by groundtruth. The cheapest end-to-end guard on
# the ingest front's ordering.
bench-smoke:
	cd bench && $(GO) test .

# Promote a downloaded CI bench run into the checked-in baseline: the
# hosted bench job runs TestPipelineSpeedupTrajectory with
# BENCH_PIPELINE_OUT=BENCH_pipeline.json (unset, the test measures and
# asserts but writes nothing) and uploads that file + bench.txt as the
# "bench" artifact; unpack it and point BENCH_ARTIFACT at the directory.
# benchpromote validates the matrix and folds the -benchmem allocs/op
# figures from bench.txt into the session_push entries before rewriting
# BENCH_pipeline.json.
BENCH_ARTIFACT ?= bench-artifact

bench-promote:
	$(GO) run ./cmd/benchpromote -artifact $(BENCH_ARTIFACT) -out BENCH_pipeline.json

# Loopback soak of the network ingestion tier: many concurrent agents
# shipping a sustained load through collector → ingest → session, with a
# mid-stream reconnect, checked byte-for-byte against the offline replay
# of the same records — plus the sketched monitor's fixed-capacity gate
# (footprint flat over a much longer synthetic stream). soak-short is
# the quick version `make ci` runs; `make soak` scales both up (tune
# SOAK_AGENTS / SOAK_REQUESTS / SOAK_LIVE_SCALE).
SOAK_AGENTS ?= 24
SOAK_REQUESTS ?= 20000
SOAK_LIVE_SCALE ?= 100

soak:
	$(GO) test ./internal/transport -count=1 -run TestTransportSoak -v \
		-soak.agents=$(SOAK_AGENTS) -soak.requests=$(SOAK_REQUESTS) -timeout 15m
	$(GO) test ./internal/live -count=1 -run TestMonitorSketchedCapacity -v \
		-live.soakscale=$(SOAK_LIVE_SCALE) -timeout 15m

soak-short:
	$(GO) test ./internal/transport -count=1 -run TestTransportSoak \
		-soak.agents=12 -soak.requests=2000
	$(GO) test ./internal/live -count=1 -run TestMonitorSketchedCapacity \
		-live.soakscale=25
