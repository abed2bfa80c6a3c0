GO ?= go

.PHONY: build vet test race bench check serve-smoke ledger-smoke clean

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
