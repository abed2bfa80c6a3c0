GO ?= go

.PHONY: build vet test race bench bench-json bench-guard check serve-smoke ledger-smoke clean

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Machine-readable numbers for the table benchmarks and the decision
# tracer's overhead benchmark (ns/op, B/op, allocs/op + custom units),
# written to BENCH_$(BENCH_LABEL).json. CI runs this as a smoke — no
# thresholds. The default label writes the git-ignored BENCH_smoke.json,
# so a smoke run never overwrites a committed BENCH_PR<n>.json record.
BENCH_LABEL ?= smoke
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkTableSequential$$|BenchmarkTableV|BenchmarkTraceOverhead' -benchmem . \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL)

# Allocation regression guard for the pricing/eligibility hot path:
# BenchmarkTableV's allocs/op must stay within 10% of the committed
# BENCH_PR6.json baseline. Allocation counts are deterministic, so the
# threshold holds on shared machines where ns/op thresholds would not.
bench-guard:
	sh scripts/bench_guard.sh

check:
	sh scripts/check.sh

# End-to-end serving smoke: boot comserve in replay mode, push the
# stream through comload, assert matches land and SIGTERM drains clean.
serve-smoke:
	sh scripts/serve_smoke.sh

# Ledger smoke: one short untraced engine_pricing run of the BENCHMARK.json
# harness. No thresholds — it fails when offline and engine digests
# disagree or an operation fails.
ledger-smoke:
	bash bench/run.sh --workload engine_pricing --seed 1 --seconds 3 --trace 0

clean:
	$(GO) clean ./...
