#!/bin/sh
# Full pre-merge gate: vet, build, structure guards, race-enabled tests, ledger smokes, fuzz smokes, short benches.
# Usage: scripts/check.sh  (or `make check`)
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> one atomic.Int64 in metrics.go (counters are declared in the Counter enum)"
test "$(grep -c 'atomic\.Int64' internal/metrics/metrics.go)" -eq 1

echo "==> the engine is single-goroutine by construction (no go statement, sync or atomic in platform, online, index, fault, stats)"
# stats: the latency reservoir is on the engine's per-request path.
if git grep -nE '\bgo (func|[a-zA-Z_.]+\()|"sync"|"sync/atomic"' -- 'internal/platform/*.go' 'internal/online/*.go' 'internal/index/*.go' 'internal/fault/*.go' 'internal/stats/*.go' ':!*_test.go'; then
	exit 1
fi

echo "==> the engine owns a decision span: no sampling RNG or atomic in trace, spans opened in online only by BatchCOM's flush"
if git grep -nE '"math/rand"|"sync/atomic"' -- 'internal/trace'; then
	exit 1
fi
if [ "$(git grep -lE '\.(Begin|Finish)\(' -- 'internal/online')" != "internal/online/batchcom.go" ]; then
	git grep -nE '\.(Begin|Finish)\(' -- 'internal/online' >&2
	exit 1
fi

echo "==> one latency record, decisions made in place: no response totals beside Latency, no platform-slot map"
if git grep -nE 'addResponse|ResponseTotal|ResponseMax|map\[core\.PlatformID\]\*slot' -- '*.go' ':!bench'; then
	exit 1
fi

echo "==> a platform's Matching is its one ledger: no Stats.Observe, no lending count in the hub, Matching.Add re-validates nothing, one clock epoch"
if git grep -nE 'Stats\) Observe\(|Stats\.Observe\(' -- '*.go' ':!bench' ':!*_test.go'; then
	exit 1
fi
if git grep -nwE 'lent|Lent' -- internal/platform/hub.go; then
	exit 1
fi
if sed -n '/^func (m \*Matching) Add(/,/^}/p' internal/core/core.go | grep -n 'Validate()'; then
	exit 1
fi
if [ "$(git grep -nE '^var epoch\b' -- '*.go' ':!bench' ':!*_test.go' | wc -l)" -gt 1 ]; then
	git grep -nE '^var epoch\b' -- '*.go' ':!bench' ':!*_test.go' >&2
	exit 1
fi

echo "==> one way in: a waiting worker is one pool slot, a stream run is Process in a loop, the WAL is one file"
if git grep -nE 'workerRec|TrackedWorkers|HistoryOf|WorkerArrives|poolHolder|EventSource|RunSource|StreamSource|SimulateSource|StreamArrivals|ArrivalSource|SegmentBytes' -- '*.go' ':!bench'; then
	exit 1
fi
# The hub's two inert one-liners, kept for bench/probes.go, and nothing else.
if [ "$(git grep -lE 'WorkerArrived|WorkerAssigned' -- '*.go' ':!bench')" != "internal/platform/hub.go" ]; then
	git grep -nE 'WorkerArrived|WorkerAssigned' -- '*.go' ':!bench' >&2
	exit 1
fi

echo "==> a stream's payloads are written once: no generator arenas, one sort of arrivals, no per-Matching ID maps"
# byWorkerID, BatchCOM's comparator, is another name and stays.
if git grep -nE 'arena\[(T|core\.)|arenaChunk|sortEvents|byWorker([^I]|$)' -- '*.go' ':!bench'; then
	exit 1
fi

echo "==> the deleted sharded engine's shim is what bench/probes.go names, nothing more"
shim=$(git grep -nE 'Shards|ShardReach|ShardStats|ShardSnapshot|ShardStalls' -- '*.go' ':!bench' ':!*_test.go' \
	':!internal/route' ':!cmd/comroute' ':!internal/serve/loadgen.go' ':!cmd/comload' |
	grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | cut -d: -f1 | uniq -c | tr -s ' \n' ' ')
# metrics: the ShardStalls constant and JSON field, the ShardSnapshot type;
# feed: ShardStats; sim: Config.Shards, .ShardReach.
want=" 3 internal/metrics/metrics.go 1 internal/platform/feed.go 2 internal/platform/sim.go "
if [ "$shim" != "$want" ]; then
	echo "shim lines per file:$shim" >&2
	echo "want:               $want" >&2
	exit 1
fi

echo "==> the fleet router has one path: no hedged sends, no failover, no knob only one value reaches"
router='Hedge|[Ff]ailover|hedge-after|probe-timeout|call-timeout|max-inflight|breaker-threshold|breaker-cooldown'
# The one hit allowed: route.ShardStatus.Hedges, inert for bench/serve.go,
# and the first line of its comment.
if [ "$(git grep -cE "$router" -- '*.go' ':!bench' ':!*_test.go')" != "internal/route/probe.go:2" ]; then
	git grep -nE "$router" -- '*.go' ':!bench' ':!*_test.go' >&2
	exit 1
fi

echo "==> the fleet router sends once and keeps one readiness bit: no re-send, no breaker, no jitter source"
once='Retries|shardRetry|internal/fault|fault\.[A-Z]|math/rand'
# The one hit allowed: route.ShardStatus.Retries, inert for bench/serve.go,
# and the first line of its comment.
if [ "$(git grep -cE "$once" -- internal/route cmd/comroute ':!*_test.go')" != "internal/route/probe.go:2" ]; then
	git grep -nE "$once" -- internal/route cmd/comroute ':!*_test.go' >&2
	exit 1
fi

echo "==> the fleet router reads and answers a line as a shard does: no byte scanner, splice, status sniff or reply writer of its own"
if git grep -nE 'scanPoint|appendStamped|lineStatus|readAllHint|encodeDecision' -- '*.go'; then
	exit 1
fi

echo "==> the serving stack reads and writes each format once: one ingest client and path table, one line ledger, one WAL frame loop"
ingest=$(git grep -lE '"[A-Z ]*/v1/(requests|workers)"' -- '*.go' ':!*_test.go' ':!bench')
if [ "$ingest" != "internal/serve/wire.go" ]; then
	git grep -nE '"[A-Z ]*/v1/(requests|workers)"' -- '*.go' ':!*_test.go' ':!bench' >&2
	exit 1
fi
if git grep -nE 'accountLines|retryLine|func retryable' -- '*.go'; then
	exit 1
fi
if [ "$(grep -c 'io\.ReadFull(r, hdr' internal/wal/wal.go)" -ne 1 ]; then
	grep -n 'io\.ReadFull' internal/wal/wal.go >&2
	exit 1
fi

echo "==> checkpoints live in the log: no snapshot manifest writer or reader, no checkpoint interval knob"
# The brackets keep this line from matching itself; the Markdown documents may name the removed API.
if git grep -nE 'WriteSnapsho[t]|LatestSnapsho[t]|SnapshotEver[y]|snapshot-ever[y]' -- ':!bench' ':!*.md'; then
	exit 1
fi

echo "==> one way out of the engine, one way into the server: one decision ledger, one record step"
# The brackets keep this line from matching itself; the Markdown documents may name the removed handler.
if git grep -n 'onWindowFlus[h]' -- ':!*.md'; then
	exit 1
fi
for call in '\.AdvanceTime\(' '\.Process\('; do
	if [ "$(git grep -E "$call" -- 'internal/serve/*.go' ':!*_test.go' | wc -l)" -gt 1 ]; then
		git grep -nE "$call" -- 'internal/serve/*.go' ':!*_test.go' >&2
		exit 1
	fi
done

echo "==> one ledger all the way out: fold books the Matching and plain counts, serve keeps no decision counter, one revenue sum"
if sed -n '/^func (e \*Engine) fold(/,/^}/p' internal/platform/feed.go | grep -nE 'Metrics|ObserveLatency|mc\.|Lock\('; then
	exit 1
fi
if sed -n '/^type counters struct/,/^}/p' internal/serve/serve.go | grep -nE '^[[:space:]]*(served|matched|revenue)\b'; then
	exit 1
fi
# OFF's optimum is its own result type; every online run's revenue is Result.TotalRevenue.
if [ "$(git grep -nE '\+=.*Revenue\(\)' -- internal/platform internal/serve ':!*_test.go' ':!internal/platform/offline.go' | cut -d: -f1)" != "internal/platform/sim.go" ]; then
	git grep -nE '\+=.*Revenue\(\)' -- internal/platform internal/serve ':!*_test.go' ':!internal/platform/offline.go' >&2
	exit 1
fi

echo "==> every counter is booked where it is counted: fault and wal keep their own, a collector is only folded into"
if git grep -n '"crossmatch/internal/metrics"' -- internal/fault internal/wal; then
	exit 1
fi
# Collector writes outside internal/metrics sit in the fold functions only.
writes='\.Add\(metrics\.|MergeLatency\(|AddPricing\('
folded=$(cat internal/platform/feed.go internal/serve/durability.go |
	sed -n -E '/^func \((e \*Engine\) FoldFunnel|s \*Server\) foldWAL)\(/,/^}/p' | grep -cE "$writes")
if [ "$(git grep -hE "$writes" -- '*.go' ':!*_test.go' ':!internal/metrics' | wc -l)" -ne "$folded" ]; then
	git grep -nE "$writes" -- '*.go' ':!*_test.go' ':!internal/metrics' >&2
	exit 1
fi

echo "==> a decision is one record: no serving copy of it, no second mark of a buffered request, no window-only record type"
# The brackets keep this line from matching itself.
if git grep -nwE 'RequestDecisio[n]|Deferre[d]|WindowDecisio[n]' -- '*.go'; then
	exit 1
fi

echo "==> one engine configuration record: settings lower through platform.Spec, a checkpoint compares one fingerprint"
if git grep -n 'faultPrin[t]' -- '*.go' || git grep -nE 'case c\.[A-Z]' -- internal/serve/durability.go \
	|| git grep -nE 'FactoryConfigured|AlgConfig' -- '*.go' ':!*_test.go' ':!internal/platform' ':!bench'; then
	exit 1
fi

echo "==> a fault plan is only its faults: a fixed retry and breaker policy, the run's seed, the engine's clock, no observer hop"
# The brackets keep this line from matching itself.
if git grep -nE 'RetryPolic[y]|BreakerConfi[g]|SetObserve[r]|fault-see[d]|FaultSee[d]' -- '*.go' '*.sh'; then
	exit 1
fi
if sed -n '/^type hubView struct/,/^}/p' internal/platform/hub.go | grep -nE '^[[:space:]]*now[[:space:]]'; then
	exit 1
fi
if git grep -nE 'type Observer\b' -- internal/fault; then
	exit 1
fi

echo "==> a shard starts one way: no background recovery, no live-but-not-ready state"
if git grep -nE 'RecoverInBackground|recover-bg|StatusRecovering|healthz/live|ResumeVTime' -- '*.go' '*.sh' Makefile .github ':!bench' ':!scripts/check.sh'; then
	exit 1
fi

echo "==> one exact matching solver: no size ladder, Hungarian only as a test oracle, no sort.Slice in online or match"
if git grep -nE 'GreedyAugment|hungarianLimit|mcmfLimit|batchHungarianLimit|batchFlowLimit' -- '*.go' ':!*_test.go'; then
	exit 1
fi
if git grep -n 'Hungarian(' -- '*.go' ':!*_test.go'; then
	exit 1
fi
if git grep -n 'sort\.Slice' -- 'internal/online' 'internal/match'; then
	exit 1
fi

echo "==> DemCOM quotes: the full sort of a candidate group is estimatePayment's one tie fallback, AcceptProb searches without a closure"
if [ "$(git grep -c 'slices\.SortFunc(group' -- 'internal/online')" != "internal/online/online.go:1" ]; then
	git grep -n 'slices\.SortFunc(group' -- 'internal/online' >&2
	exit 1
fi
if git grep -n 'SearchFloat64s' -- 'internal/pricing/history.go'; then
	exit 1
fi

echo "==> go test -race"
go test -race ./...

echo "==> ledger smoke (bench/ runs against this tree: offline == engine digests, 3 s)"
make ledger-smoke

echo "==> traced ledger smoke (the only run that calls probeShard: the shard.* rows must compute, 3 s)"
bash bench/run.sh --workload engine_city --seed 1 --seconds 3 --trace 1 >/dev/null

echo "==> fuzz smokes (every target, 10 s each)"
for pkg in $(go list ./...); do
	for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
		go test -run '^$' -fuzz "^$target\$" -fuzztime 10s "$pkg"
	done
done

echo "==> short benchmarks (1 iteration each)"
go test -run '^$' -bench 'BenchmarkTable(Sequential|Parallel)$|BenchmarkPlatformSequentialRuntime$|BenchmarkTraceOverhead$' -benchtime 1x -benchmem .
go test -run '^$' -bench 'BenchmarkNewStream400k(Sorted)?$|BenchmarkSlotGridAppendSlots$|BenchmarkGenerateCity$|BenchmarkNewHistory$|BenchmarkMinOuterPayment$|BenchmarkEstimatePayment$|BenchmarkReservoirObserve$' -benchtime 1x -benchmem ./internal/core ./internal/index ./internal/workload ./internal/pricing ./internal/online ./internal/stats
go test -run '^$' -bench 'BenchmarkRouterForward$' -benchtime 1x -benchmem ./internal/route

echo "==> OK"
