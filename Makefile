# Verification gate for gpssn. `make check` is the single entry CI runs:
# vet, lint, build, the tier-1 tests, a race-detector pass (short mode so
# the heavy bench package stays fast), then the equality gates under
# several GOMAXPROCS settings. See docs/CONCURRENCY.md §5.

GO ?= go

.PHONY: check vet lint build test race equality examples docs-lint serve-smoke fuzz-smoke snapshot-matrix churn-suite crash-suite bench-parallel bench-smoke bench-churn bench-serve bench-scale bench-guard

check: vet lint build test race equality

vet:
	$(GO) vet ./...

# staticcheck when available; skip quietly on machines without it (CI
# installs it in the lint job).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

race:
	$(GO) test -race -short -timeout 10m ./...

# The cross-configuration answer gates under real scheduling: memo on/off,
# parallelism 1/8, hl/ch/dijkstra and the brute-force Baseline, each run
# three times at GOMAXPROCS 1, 2 and 8. Answers must be bit-identical on
# every schedule, so a flake here is a defect (docs/CONCURRENCY.md §3).
EQUALITY_FLAGS = -count=3 -cpu 1,2,8 -timeout 10m
equality:
	$(GO) test $(EQUALITY_FLAGS) -run 'TestSharedWork|TestOracleEqualityQueries|TestHLOracleEqualityQueries' .
	$(GO) test $(EQUALITY_FLAGS) -run 'TestMemoParallelismBitIdentical|TestEngineMatchesBaseline' ./internal/core

# Every runnable example end to end; each is a standalone main that
# exits non-zero on failure, so this doubles as a living-docs check.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tripplanning
	$(GO) run ./examples/marketing
	$(GO) run ./examples/importcsv
	$(GO) run ./examples/serve

# Broken relative links (file or heading anchor) in the markdown docs
# fail the build; CI runs this in the lint job.
docs-lint:
	$(GO) run ./cmd/docs-lint README.md docs/*.md

# End-to-end smoke test of the shipped gpssn-serve binary: build, serve a
# generated dataset, health-check and query over real HTTP, drain on
# SIGTERM (docs/SERVING.md §7). CI runs this on every push.
serve-smoke:
	./scripts/serve-smoke.sh

# Short native-fuzz runs over the hostile-input surfaces (CSV import,
# snapshot decode, WAL replay). ~30s each; CI runs this on every push, and
# longer local runs just raise FUZZTIME. See docs/ROBUSTNESS.md §5.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzImportCSV$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/wal

# The snapshot round-trip and corruption/torn-write matrix on its own —
# the recovery gates the robustness PR promises (docs/ROBUSTNESS.md §4).
snapshot-matrix:
	$(GO) test -run 'TestSnapshot|TestOpenSnapshot' -count=1 -v .

# The road-churn suite under -race: delta-overlay equality gates across
# all oracle backends (pre/during/post background Compact), the
# concurrent-mutation interleavings, and the rebuild-failure fallback
# (docs/CONCURRENCY.md §7, docs/ROBUSTNESS.md §6).
churn-suite:
	$(GO) test -race -run 'TestRoadChurn|TestDBConcurrentRoadChurn|TestCompact|TestRoadOverlay|TestRoadMutation|TestAddFriendshipInvalid|TestDuplicateFriendship|TestOverlay' -count=1 -v . ./internal/roadnet/

# The WAL crash matrix and durability gates on their own: kill points and
# corruption modes in the write path (torn tails, short writes, bit flips,
# both checkpoint windows) recovered bit-identical to a never-crashed twin
# across all oracle backends, plus the facade durability round-trip,
# rejection atomicity, delta folding, and the wal package's own tests
# (docs/ROBUSTNESS.md §8).
crash-suite:
	$(GO) test -run 'TestWAL|TestSnapshotFoldsPendingDeltas|TestOverlayAutoCompact|TestDBClose' -count=1 -v .
	$(GO) test -count=1 -v ./internal/wal

# The parallel-refinement speedup table (recorded in EXPERIMENTS.md).
bench-parallel:
	$(GO) run ./cmd/gpssn-bench -exp parallel

# Quick distance-oracle smoke benchmarks: CH vs Dijkstra, then hub labels
# vs both, each with query CPU plus the point-to-point microbenchmark on
# the paper-scale road network and a machine-readable report
# (BENCH_choracle.json / BENCH_hublabel.json, recorded in EXPERIMENTS.md).
bench-smoke:
	$(GO) run ./cmd/gpssn-bench -exp choracle -scale 0.05 -queries 4 -jsonout BENCH_choracle.json
	$(GO) run ./cmd/gpssn-bench -exp hublabel -scale 0.05 -queries 4 -jsonout BENCH_hublabel.json

# Road-churn benchmark: query latency against the static oracle, against
# the delta-overlay after a burst of AddRoadVertex/AddRoadEdge writes,
# concurrently with the background Compact re-contraction, and after the
# swap — plus the same churned workload on an oracle-free DB, the
# fallback-to-Dijkstra cliff the overlay removes (BENCH_churn.json,
# recorded in EXPERIMENTS.md).
bench-churn:
	$(GO) run ./cmd/gpssn-bench -exp churn -scale 0.05 -queries 48 -jsonout BENCH_churn.json
	$(GO) run ./cmd/gpssn-bench -exp walchurn -scale 0.05 -jsonout BENCH_wal.json

# The million-scale tier: generate ~1M road vertices / ~1M users with the
# streaming lattice generator, build CH + hub labels, run the default query
# workload, and record latency percentiles plus peak RSS in
# BENCH_scale1m.json (recorded in EXPERIMENTS.md). Deliberately heavy:
# ~18 min and ~11 GB peak on one core at full scale.
bench-scale:
	$(GO) run ./cmd/gpssn-bench -exp scale1m -scale 1.0 -queries 16 -jsonout BENCH_scale1m.json

# Regression guard: re-run the smoke benchmarks and compare p50-class
# latencies against the committed BENCH_*.json; fails past 2x. CI runs it
# as a non-blocking job (shared-runner noise is real).
bench-guard:
	./scripts/bench-guard.sh

# The serving load test: 1000 concurrent zipf-skewed clients against an
# in-process gpssn-serve over loopback TCP; reports p50/p99 latency,
# throughput, shed rate and the coalescing/caching win. -compare drives
# the same load twice — shared-work memo off (BENCH_serve_nomemo.json)
# then on (BENCH_serve.json) — so the two reports are a before/after pair
# for the cross-query batching layer (recorded in docs/SERVING.md).
bench-serve:
	$(GO) run ./cmd/gpssn-bench -exp serve -scale 0.05 -warmup 1000 -compare -jsonout BENCH_serve.json
