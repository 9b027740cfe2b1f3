GO ?= go

# Coverage floor for the telemetry package: instruments are pure
# bookkeeping, so near-complete coverage is cheap and regressions
# there silently blind every other layer.
TELEMETRY_COVER_FLOOR ?= 80

# Same reasoning for the observability package: span validation and
# changepoint classification are the tools that audit everything else.
OBS_COVER_FLOOR ?= 80

# The scenario engine is pure functions of (region, t) and the
# autotuner is pure search logic — both are cheap to cover completely,
# and holes there silently skew every policy recommendation.
SCENARIO_COVER_FLOOR ?= 80
AUTOTUNE_COVER_FLOOR ?= 80

.PHONY: build test bench alloccheck verify fuzz cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repo benchmark (bench/, its own Go module; see bench/README.md
# and BENCHMARK.json): every workload, one child process each, each op
# on a fresh Lab/Server/Fleet. For one workload, more passes or
# -compare, call bench/run.sh with arguments directly.
bench:
	bash bench/run.sh

# Allocation regressions: the interpreter hot path must stay at zero
# machinery allocations, a presized packed array at two (header +
# values), object creation at a slab refill per many objects, Ext-TSP
# at its per-call buffers, the steady-state request path under its
# per-request ceiling, the store's crash-retry pick path (exclusion
# lists in force) at zero allocations, a quiet fleet Tick at
# parallel.ForEachShard's fixed cost with a C3 wave restart at zero,
# and every telemetry call on a nil set at zero.
alloccheck:
	$(GO) test -count=1 -v -run 'AllocFree|AllocRegression|TestStreamAllocFree' \
		./internal/interp/ ./internal/microarch/ ./internal/server/ \
		./internal/jumpstart/ ./internal/object/ ./internal/layout/ \
		./internal/cluster/ ./internal/telemetry/

# CI gate: gofmt, vet, and the full suite under the race detector.
# The parallel-vs-sequential determinism tests run here, so this also
# proves byte-identical output at every worker count.
verify:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test -race ./...

# Native fuzzing, CI budget: each target runs for 10 s on top of its
# committed seed corpus (testdata/fuzz/<target>/). go test accepts one
# -fuzz target per package per run, so add one line per target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFetchHostileConn$$' -fuzztime 10s ./internal/jumpstart/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzValidatePackage$$' -fuzztime 10s ./internal/jumpstart/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayInvalidation$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzArrayOps$$' -fuzztime 10s ./internal/value/
	$(GO) test -run '^$$' -fuzz '^FuzzExtTSP$$' -fuzztime 10s ./internal/layout/
	$(GO) test -run '^$$' -fuzz '^FuzzProfDecode$$' -fuzztime 10s ./internal/prof/
	$(GO) test -run '^$$' -fuzz '^FuzzLangRoundTrip$$' -fuzztime 10s ./internal/lang/
	$(GO) test -run '^$$' -fuzz '^FuzzHierarchyMRU$$' -fuzztime 10s ./internal/microarch/

# Coverage gate: reports per-package coverage and enforces the floors
# on internal/telemetry, internal/obs, internal/scenario and
# internal/autotune.
cover:
	$(GO) test -cover ./...
	@check() { \
		pct=$$($(GO) test -cover $$1 | \
			sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$1"; exit 1; fi; \
		ok=$$(awk -v p="$$pct" -v f="$$2" 'BEGIN{print (p>=f)?1:0}'); \
		if [ "$$ok" != 1 ]; then \
			echo "cover: $$1 $$pct% < $$2% floor"; exit 1; \
		fi; \
		echo "cover: $$1 $$pct% >= $$2% floor"; \
	}; \
	check ./internal/telemetry/ $(TELEMETRY_COVER_FLOOR) && \
	check ./internal/obs/ $(OBS_COVER_FLOOR) && \
	check ./internal/scenario/ $(SCENARIO_COVER_FLOOR) && \
	check ./internal/autotune/ $(AUTOTUNE_COVER_FLOOR)
