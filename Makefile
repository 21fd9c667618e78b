# Developer entry points. CI runs the same checks as `make check`.
.PHONY: build test lint check bench bench-serving bench-ingest bench-query bench-archive bench-load bench-obs bench-smoke bench-module fuzz-smoke

build:
	go build ./...

test:
	go test ./...

# Static gates: formatting (fails on any unformatted file, matching the
# CI gate — bare `gofmt -l` exits 0 even when it lists files; `|| exit`
# also propagates gofmt's own failure, which the bare substitution
# swallows), vet, and the repo's custom invariant suite (repro-lint:
# determinism, durability-seam and retryable-API checks — see
# docs/DETERMINISM.md).
lint:
	@out="$$(gofmt -l .)" || exit; if [ -n "$$out" ]; then \
		echo "gofmt needs running on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go build -o bin/repro-lint ./cmd/repro-lint
	go vet -vettool=bin/repro-lint ./...

check: lint
	go build ./...
	go test ./...

# Persistence benchmarks (WAL append/replay, crash recovery); emits
# BENCH_persistence.json. Pass BENCHTIME=5s for steadier numbers.
BENCHTIME ?= 1s
bench:
	./scripts/bench_persistence.sh $(BENCHTIME)

# Serving benchmarks (query p50/p99 under full-rate ingest, ingest
# throughput, durable-ingest ack latency); emits BENCH_serving.json.
bench-serving:
	./scripts/bench_serving.sh $(BENCHTIME)

# Write-path-only subset of bench-serving for fast iteration on ingest
# work: runs the ingest throughput + durable-ack benchmarks and rewrites
# BENCH_serving.json with those numbers (run bench-serving for the full
# suite before committing the file).
bench-ingest:
	./scripts/bench_serving.sh $(BENCHTIME) 'IngestThroughput|IngestDurable'

# Unified query-engine benchmarks (LIMIT pushdown segment skipping);
# emits BENCH_query.json.
bench-query:
	./scripts/bench_query.sh $(BENCHTIME)

# Archive storage-layer benchmarks (v1 JSONL vs v2 columnar decode,
# zone-map block skipping, on-disk footprint); emits BENCH_archive.json.
bench-archive:
	./scripts/bench_archive.sh $(BENCHTIME)

# Adversarial load harness (uniform / zipf-hot / flash-flood scenarios
# against an in-process server with admission control on); emits
# BENCH_load.json with per-tenant ingest-to-SSE and query percentiles,
# shed counts, and the reproducible traffic-plan SHA-256. See
# docs/OPERATIONS.md.
bench-load:
	./scripts/bench_load.sh

# Instrumentation-overhead gate: the durable-ingest and
# query-under-ingest benchmarks with telemetry off vs on must agree
# within OBS_TOLERANCE_PCT (default 3) ns/op and +0 allocs/op; emits
# BENCH_obs.json and fails on regression. See docs/OPERATIONS.md.
OBS_TOLERANCE_PCT ?= 3
OBS_ALLOC_SLACK ?= 0
bench-obs:
	OBS_TOLERANCE_PCT=$(OBS_TOLERANCE_PCT) OBS_ALLOC_SLACK=$(OBS_ALLOC_SLACK) \
		./scripts/bench_obs.sh $(BENCHTIME)

# One-iteration pass over every benchmark in the repo, so bench-only
# files cannot rot uncompiled (CI runs this on every PR), plus the fuzz
# targets' seed corpora so fuzz-only regressions surface immediately.
bench-smoke: fuzz-smoke
	go test -run xxx -bench . -benchtime 1x ./...

fuzz-smoke:
	go test -run 'Fuzz' -count=1 ./internal/server/ ./internal/query/ ./internal/archive/ ./internal/stream/

# The benchmark (bench/, BENCHMARK.json) is a module of its own, so the
# targets above never compile it; this keeps it building, vetted, tested
# and lint-clean against the tree. Running it is `bash bench/run.sh run`.
bench-module:
	go build -o bin/repro-lint ./cmd/repro-lint
	cd bench && go build ./... && go vet ./... && go test ./... && go vet -vettool=../bin/repro-lint ./...
