#!/bin/sh
# Full pre-merge gate: vet, build, race-enabled tests, ledger smoke, fuzz smokes, short benches.
# Usage: scripts/check.sh  (or `make check`)
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> one atomic.Int64 in metrics.go (counters are declared in the Counter enum)"
test "$(grep -c 'atomic\.Int64' internal/metrics/metrics.go)" -eq 1

echo "==> go test -race"
go test -race ./...

echo "==> ledger smoke (bench/ runs against this tree: offline == engine digests, 3 s)"
make ledger-smoke

echo "==> fuzz smokes (every target, 10 s each)"
for pkg in $(go list ./...); do
	for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
		go test -run '^$' -fuzz "^$target\$" -fuzztime 10s "$pkg"
	done
done

echo "==> short benchmarks (1 iteration each)"
go test -run '^$' -bench 'BenchmarkTable(Sequential|Parallel)$|BenchmarkPlatformSequentialRuntime$' -benchtime 1x .
go test -run '^$' -bench 'BenchmarkNewStream400k(Sorted)?$|BenchmarkSlotGridAppendSlots$|BenchmarkGenerateCity$|BenchmarkNewHistory$' -benchtime 1x -benchmem ./internal/core ./internal/index ./internal/workload ./internal/pricing

echo "==> OK"
