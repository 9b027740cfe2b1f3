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

.PHONY: build test bench alloccheck verify fuzz cover faultsweep churnsweep regionsweep obssweep poolsweep scenariosweep

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
# per-request ceiling, and the store's crash-retry pick path
# (exclusion lists in force) at zero allocations.
alloccheck:
	$(GO) test -count=1 -v -run 'AllocFree|AllocRegression|TestStreamAllocFree' \
		./internal/interp/ ./internal/microarch/ ./internal/server/ \
		./internal/jumpstart/ ./internal/object/ ./internal/layout/

# CI gate: vet plus the full suite under the race detector. The
# parallel-vs-sequential determinism tests run here, so this also
# proves byte-identical output at every worker count.
verify:
	$(GO) vet ./...
	$(GO) test -race ./...

# Native fuzzing, CI budget: each target runs for 10 s on top of its
# committed seed corpus (testdata/fuzz/<target>/). go test accepts one
# -fuzz target per package per run, so add one line per target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFetchHostileConn$$' -fuzztime 10s ./internal/jumpstart/transport/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayInvalidation$$' -fuzztime 10s ./internal/server/
	$(GO) test -run '^$$' -fuzz '^FuzzArrayOps$$' -fuzztime 10s ./internal/value/
	$(GO) test -run '^$$' -fuzz '^FuzzExtTSP$$' -fuzztime 10s ./internal/layout/

# The *sweep targets below are developer shortcuts, not CI steps: each
# re-runs, verbosely and under -race, a subset of what `verify` just
# ran, for iterating on one subsystem.

# Fault-injection gate: the store-brownout determinism test, which
# re-runs the faulted fleet at -workers 1, 4, and NumCPU under the
# race detector and requires byte-identical tick series, zero consumer
# crashes, and a recorded reason for every no-Jump-Start boot.
faultsweep:
	$(GO) test -race -count=1 -v -run 'TestFleetBrownoutDeterminism' ./internal/cluster/

# Continuous-deployment gate: the churn determinism test (pushes on a
# cadence, remap-tolerant package carry-over, remapped-boot curves;
# byte-identical at -workers 1, 4 and NumCPU, direct and over the
# networked transport), the store-policy semantics at a push, the
# remapper edge cases, and the mutator's golden revision hashes.
churnsweep:
	$(GO) test -race -count=1 -v -run 'TestFleetChurn' ./internal/cluster/
	$(GO) test -race -count=1 -v -run 'TestRemap' ./internal/prof/
	$(GO) test -race -count=1 -v -run 'TestChain|TestPrinterRoundTrip' ./internal/release/

# Multi-region gate: the sharded-store determinism test (per-region
# shards, 2-way replication, seeder aggregation, long-haul brownout;
# byte-identical at -workers 1, 4 and NumCPU), the replica-failover and
# inter-region-partition fault drills, the consensus vote, the
# multistore unit suite, the profile-aggregation merge rules, and the
# regions experiment's direction checks.
regionsweep:
	$(GO) test -race -count=1 -v -run 'TestFleetRegions|TestFleetReplicaFailover|TestFleetInterRegion|TestConsensusVoting' ./internal/cluster/
	$(GO) test -race -count=1 -v ./internal/jumpstart/multistore/
	$(GO) test -race -count=1 -v -run 'TestAggregate' ./internal/prof/
	$(GO) test -race -count=1 -v -run 'TestRegionsDirections' ./internal/experiments/

# Observability gate: the causal-span determinism test (span traces in
# both export formats byte-identical at -workers 1, 4 and NumCPU, with
# zero simulation perturbation and every tree passing the
# duration-conservation check), the fleet warmup-series classification
# loop, the classifier's golden curve labels, and the span/quantile
# unit suites.
obssweep:
	$(GO) test -race -count=1 -v -run 'TestFleetSpanDeterminism|TestFleetWarmupSeriesClassification' ./internal/cluster/
	$(GO) test -race -count=1 -v ./internal/obs/
	$(GO) test -race -count=1 -v -run 'TestSpan|TestTraceWraparound|TestHistogramQuantile|TestChromeTrace|TestExportSpans' ./internal/telemetry/

# Warm-pool + lazy-paging gate: the pooled + lazy fleet determinism
# test (standby swaps, throttled backfill, crash reboots, and lazy-mode
# boots byte-identical at -workers 1, 4 and NumCPU under the race
# detector), the pool conservation and edge-case suite, the lazy
# consumer's server-level contract, the per-fetch budget and pager
# regression tests, and the pool experiment's direction checks.
poolsweep:
	$(GO) test -race -count=1 -v -run 'TestPool|TestLazyModeUsesLazyCurve|TestWarmupSeriesReanchorsPerPush' ./internal/cluster/
	$(GO) test -race -count=1 -v -run 'TestLazy' ./internal/server/
	$(GO) test -race -count=1 -v -run 'TestFetchChunkFreshBudgetPerCall|TestLazyPager' ./internal/jumpstart/transport/
	$(GO) test -race -count=1 -v -run 'TestPoolFigure' ./internal/experiments/

# Dynamic-traffic gate: the scenario determinism test (diurnal,
# flash-crowd and failover fleets byte-identical at -workers 1, 4 and
# NumCPU under the race detector, with geometry classes and demand
# accounting), the scenario-engine unit suite, the autotuner search
# invariants, and the time-varying traffic modulation tests.
scenariosweep:
	$(GO) test -race -count=1 -v -run 'TestScenario|TestGeometry|TestDiurnal|TestFailover|TestNoScenario' ./internal/cluster/
	$(GO) test -race -count=1 -v ./internal/scenario/
	$(GO) test -race -count=1 -v ./internal/autotune/
	$(GO) test -race -count=1 -v -run 'TestTrafficMixShift|TestTrafficDiffersAcrossRegions' ./internal/workload/

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
