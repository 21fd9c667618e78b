#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the harness into .bench_build/
# with the Go build cache there too, so a run writes nothing outside the
# checkout, then hands over to it; the harness builds cmd/serve itself.
# Fails (non-zero, no result line) when the repo around bench/ is missing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
