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
# analytics tier (internal/sketch + internal/export) — the packages the
# sharded streaming session (including the SealAfter continuous mode and
# the barrier that correlates sealed components), the online monitor and
# its bounded-memory sketches and export sinks live in.
COVER_MIN ?= 85

.PHONY: ci fmt vet lint build test race debug cover bench bench-allocs bench-scaling bench-smoke soak soak-short loc

ci: fmt vet lint build test race debug cover bench bench-allocs bench-scaling bench-smoke soak-short

# Fails when any Go file (the bench module's included) is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; fi

# bench/ is a module of its own: `go vet ./...` never compiles it, so it
# is vetted separately against the internal APIs it imports.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

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

# The debug assertions, armed the way a normal build arms them: the
# per-push channel-closure check in the streaming session
# (CORE_DEBUG_SHARD_CLOSURE) and the ranker's checks of its ordinals and
# its buffered-SEND counter (RANKER_DEBUG). core's own tests arm both in
# code; the ranker's tests run with them only here.
debug:
	CORE_DEBUG_SHARD_CLOSURE=1 RANKER_DEBUG=1 $(GO) test -count=1 ./internal/core ./internal/ranker

cover:
	$(GO) test -coverprofile=coverage.out ./internal/core ./internal/flow ./internal/live ./internal/sketch ./internal/export
	@$(GO) tool cover -func=coverage.out | awk -v min=$(COVER_MIN) '/^total:/ { pct = $$3; sub(/%/, "", pct); printf "coverage: %s%% of statements in internal/core+internal/flow+internal/live+internal/sketch+internal/export (minimum %s%%)\n", pct, min; exit (pct + 0 < min + 0) }'

bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Allocation regression gates for the streaming-engine hot path, the
# export sinks' encode, the live monitor's ingest and the agent→collector
# transport tier. Each BenchmarkSessionPush variant has its own budget:
# the measured figure on the reference box plus ~25-30% headroom for
# machine variance — an accidental per-record allocation costs ~37k
# allocs/op here and blows either budget immediately.
#
#   seq-close-driven: 25,433 measured once the engine carved vertices
#   from 128-vertex chunks (47,993 with one allocation per vertex);
#   50,647 once a completed multi-segment RECEIVE took over its
#   partial-segment slice instead of copying it (53,847 before; 53,849
#   with the collector goroutine and results ring; down from 178,250
#   before dense interned identities, ~68k before the worker-pool
#   ranker/engine reuse).
ALLOCS_BUDGET ?= 32500
#   seq-continuous (SealAfter horizon, per-component forced seals): 26,206
#   measured with the vertex chunks (48,759 before); 48,932 once stage 1
#   recycled run arrays and component structs (60,352 before), 60,352
#   with the partial-slice take-over (63,552 before, 63,550 with the
#   collector), down from ~64.4k (64,447) when every release copied the
#   held backlog, ~64k after the worker-pool reuse + flow key recycling,
#   and ~139k when every sealed component rebuilt its ranker and engine.
ALLOCS_BUDGET_CONTINUOUS ?= 33500
# Byte budgets for the same two variants: allocs/op cannot see an object
# shrink or grow, B/op can. The measured figure plus ~10%.
#
#   seq-close-driven: 9,679,000 B/op measured once activity.Activity
#   carried one channel identity (120 B, in 64 KiB slabs), 11,735,000
#   with the 176 B record (string Channel plus ChanKey), 12,263,000
#   with cag.Vertex embedding its representative record (72 B, 80 B
#   class), 15,927,000 when it copied Type/Timestamp/Ctx/Chan and kept
#   a child-edge list (232 B, 240 B class).
BYTES_BUDGET ?= 10650000
#   seq-continuous: 8,173,000 B/op measured with the 120 B record
#   (10,228,000 before), 10,229,000 with recycled run arrays and
#   component structs, 11,663,000 before, 15,328,000 before the vertex
#   change.
BYTES_BUDGET_CONTINUOUS ?= 9000000
#   export-sinks (BenchmarkExportSinks: one RUBiS graph through the OTLP
#   exporter and the DumpWriter): 0 measured with the append writers, 715
#   with the span tree + encoding/json and the fmt dump. One allocation per
#   span or attribute would cost ~15-100 allocs/op.
ALLOCS_BUDGET_EXPORT ?= 4
#   agent-collector-loopback (BenchmarkAgentCollectorLoopback: three agents
#   ship 65,538 records over 127.0.0.1 to a collector whose sink only
#   releases them; connection set-up included): 27.7-28.6 B/record and
#   0.0258-0.0289 allocs/record measured at -cpu 1, 2 and 4 with the
#   fixed-ring unacked window, a BatchSize send buffer per connection and
#   one header-sized run slice per frame; 196.9 B/record and 0.069
#   allocs/record when the window was a slice trimmed from the front and
#   every wake-up built a fresh send batch. The run slices and pool misses
#   vary with frame timing and GC, so the budgets are the -cpu 2 figure
#   (28.1 B, 0.0273) plus ~25-30%; one allocation per record adds 1.0
#   allocs/record.
BYTES_BUDGET_TRANSPORT ?= 36
ALLOCS_BUDGET_TRANSPORT ?= 0.035
#   monitor-ingest (BenchmarkMonitorIngest: 1,692 RUBiS graphs through a
#   fresh live.Monitor per op at 2 s intervals, then Flush): exact mode
#   0.448 allocs/graph and 49.5 B/graph measured once each graph is folded
#   into per-pattern accumulators on arrival, 21.05 and 1,794 when exact
#   mode kept every graph of the interval and aggregated at close;
#   sketched mode 0.658 and 150.7 (21.11 and 1,711 before). The budgets
#   are the measured figures plus ~25%; one allocation per graph adds 1.0
#   allocs/graph.
ALLOCS_BUDGET_MONITOR ?= 0.56
BYTES_BUDGET_MONITOR ?= 62
ALLOCS_BUDGET_MONITOR_SKETCHED ?= 0.82
BYTES_BUDGET_MONITOR_SKETCHED ?= 190

bench-allocs:
	@$(GO) test -run '^$$' -bench '^BenchmarkAgentCollectorLoopback$$' -benchtime=3x ./internal/transport \
	| awk -v bbudget=$(BYTES_BUDGET_TRANSPORT) -v abudget=$(ALLOCS_BUDGET_TRANSPORT) ' \
		/^BenchmarkAgentCollectorLoopback/ { found++; \
			for (i = 2; i <= NF; i++) { if ($$i == "B/record") b = $$(i-1) + 0; if ($$i == "allocs/record") a = $$(i-1) + 0 } \
			printf "bench-allocs: agent-collector-loopback %.1f B/record (budget %.1f), %.4f allocs/record (budget %.4f)\n", b, bbudget, a, abudget; \
			if (b > bbudget || a > abudget) bad = 1 } \
		END { \
			if (found != 1) { printf "bench-allocs: expected 1 transport benchmark result, got %d\n", found; exit 1 } \
			exit bad \
		}'
	@$(GO) test -run '^$$' -bench '^BenchmarkMonitorIngest$$' -benchtime=5x ./internal/live \
	| awk -v ab=$(ALLOCS_BUDGET_MONITOR) -v bb=$(BYTES_BUDGET_MONITOR) \
		-v sab=$(ALLOCS_BUDGET_MONITOR_SKETCHED) -v sbb=$(BYTES_BUDGET_MONITOR_SKETCHED) ' \
		/^BenchmarkMonitorIngest\/(exact|sketched)/ { found++; \
			for (i = 2; i <= NF; i++) { if ($$i == "B/graph") b = $$(i-1) + 0; if ($$i == "allocs/graph") a = $$(i-1) + 0 } \
			if ($$1 ~ /sketched/) { mode = "sketched"; abud = sab; bbud = sbb } else { mode = "exact"; abud = ab; bbud = bb } \
			printf "bench-allocs: monitor-ingest/%s %.3f allocs/graph (budget %.2f), %.1f B/graph (budget %d)\n", mode, a, abud, b, bbud; \
			if (a > abud || b > bbud) bad = 1 } \
		END { \
			if (found != 2) { printf "bench-allocs: expected 2 monitor benchmark results, got %d\n", found; exit 1 } \
			exit bad \
		}'
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
	| awk -v budget=$(ALLOCS_BUDGET) -v cbudget=$(ALLOCS_BUDGET_CONTINUOUS) \
		-v bbudget=$(BYTES_BUDGET) -v cbbudget=$(BYTES_BUDGET_CONTINUOUS) ' \
		/BenchmarkSessionPush\/seq-close-driven/ { a = $$(NF-1) + 0; b = $$(NF-3) + 0; found++; \
			printf "bench-allocs: seq-close-driven %d allocs/op (budget %d), %d B/op (budget %d)\n", a, budget, b, bbudget; \
			if (a > budget || b > bbudget) bad = 1 } \
		/BenchmarkSessionPush\/seq-continuous/ { a = $$(NF-1) + 0; b = $$(NF-3) + 0; found++; \
			printf "bench-allocs: seq-continuous %d allocs/op (budget %d), %d B/op (budget %d)\n", a, cbudget, b, cbbudget; \
			if (a > cbudget || b > cbbudget) bad = 1 } \
		END { \
			if (found != 2) { printf "bench-allocs: expected 2 benchmark results, got %d\n", found; exit 1 } \
			exit bad \
		}'

# Scaling gate (TestScalingEfficiencyGate): at the largest benchmark
# scale, workers=NumCPU must beat the sequential pass and keep its
# parallel efficiency (speedup/workers) above SCALING_FLOOR. Skips itself
# on single-CPU hosts and under -race. `make ci` runs it, so the hosted
# ci job does too (see .github/workflows/ci.yml).
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

# The size figure ROADMAP item 6 tracks: lines of tracked non-test Go
# outside the bench module. Informational only; not part of ci.
loc:
	@git ls-files -- '*.go' ':!:*_test.go' ':!:bench/*' | xargs cat | wc -l
