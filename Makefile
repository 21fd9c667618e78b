# Developer entry points. CI runs the same checks as `make check`.
.PHONY: build test lint check bench-smoke bench-module fuzz-smoke loc

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

# End-to-end and per-layer performance numbers come from the benchmark
# under bench/ (see bench-module); the overload and degradation
# contracts are ordinary tests:
# go test -run TestOverloadContractsOverHTTP ./internal/server/.

# One-iteration pass over every benchmark in the repo, so bench-only
# files cannot rot uncompiled (CI runs this on every PR), plus the fuzz
# targets' seed corpora so fuzz-only regressions surface immediately.
bench-smoke: fuzz-smoke
	go test -run xxx -bench . -benchtime 1x ./...

# Every package, so a fuzz target in a new package cannot be skipped.
fuzz-smoke:
	go test -run '^Fuzz' -count=1 ./...

# The benchmark (bench/, BENCHMARK.json) is a module of its own, so the
# targets above never compile it; this keeps it building, vetted, tested
# and lint-clean against the tree. Running it is `bash bench/run.sh run`.
bench-module:
	go build -o bin/repro-lint ./cmd/repro-lint
	cd bench && go build ./... && go vet ./... && go test ./... && go vet -vettool=../bin/repro-lint ./...

# Non-test Go line counts: every file outside bench/ and testdata, and
# the read path's set (ROADMAP item 8). Untracked files count unless
# git ignores them.
READ_PATH = internal/query internal/detect/snapshot.go \
	internal/server/query.go internal/server/handlers.go \
	internal/server/encode.go internal/server/reads.go
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | \
		grep -v -e '^bench/' -e '/testdata/' | xargs cat | wc -l | \
		sed 's/^/non-test Go outside bench\/ and testdata: /'
	@git ls-files -co --exclude-standard $(READ_PATH) | grep '\.go$$' | \
		grep -v '_test\.go$$' | xargs cat | wc -l | \
		sed 's/^/non-test Go in the read path (ROADMAP item 8): /'
