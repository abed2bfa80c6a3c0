#!/bin/sh
# Full pre-merge gate: vet, build, race-enabled tests, fuzz smokes, short benches.
# Usage: scripts/check.sh  (or `make check`)
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test -race"
go test -race ./...

echo "==> fuzz smokes (10 s each)"
go test -run '^$' -fuzz '^FuzzStreamOrdering$' -fuzztime 10s ./internal/core
go test -run '^$' -fuzz '^FuzzSlotGridMatchesGrid$' -fuzztime 10s ./internal/index
go test -run '^$' -fuzz '^FuzzAcceptProbTableEquivalence$' -fuzztime 10s ./internal/pricing

echo "==> short benchmarks (1 iteration each)"
go test -run '^$' -bench 'BenchmarkTable(Sequential|Parallel)$|BenchmarkPlatform(Sequential|Parallel)Runtime$' -benchtime 1x .
go test -run '^$' -bench 'BenchmarkNewStream400k(Sorted)?$|BenchmarkSlotGridAppendSlots$|BenchmarkGenerateCity$|BenchmarkNewHistory$' -benchtime 1x -benchmem ./internal/core ./internal/index ./internal/workload ./internal/pricing

echo "==> OK"
