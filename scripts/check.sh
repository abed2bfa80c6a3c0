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

echo "==> the deleted sharded engine's shim is what bench/probes.go names and the WAL refusal, nothing more"
shim=$(git grep -nE 'Shards|ShardReach|ShardStats|ShardSnapshot|ShardStalls' -- '*.go' ':!bench' ':!*_test.go' \
	':!internal/route' ':!cmd/comroute' ':!internal/serve/loadgen.go' ':!cmd/comload' |
	grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' | cut -d: -f1 | uniq -c | tr -s ' \n' ' ')
# metrics: the ShardStalls constant and JSON field, the ShardSnapshot type;
# feed: ShardStats; sim: Config.Shards, .ShardReach; durability: the refusal
# (two lines); snapshot: the one decoded field.
want=" 3 internal/metrics/metrics.go 1 internal/platform/feed.go 2 internal/platform/sim.go 2 internal/serve/durability.go 1 internal/wal/snapshot.go "
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

echo "==> OK"
