#!/usr/bin/env bash
# A/A check: two sets of runs of the same commit must agree within the
# benchmark's own bounds. For every end-to-end metric × workload it
# prints both medians, how far apart they are (relative to the smaller,
# whichever set it is), and the within-set spread (interquartile range
# over the median, Python's statistics.quantiles(n=4) — the driver's
# rule), and exits non-zero if the difference or either spread exceeds
# the metric's bound.
#
#   bench/aa.sh            two sets of five runs per workload (~25 min)
#   RUNS=10 bench/aa.sh    the driver's own size (~50 min)
#   WORKLOADS="fleet_paced" SECONDS_PER_RUN=10 bench/aa.sh
#
# Each run uses another seed (set 1: 1..RUNS, set 2: 101..100+RUNS),
# because the driver does the same.
set -euo pipefail
cd "$(dirname "$0")/.."
runs=${RUNS:-5}
secs=${SECONDS_PER_RUN:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
workloads=${WORKLOADS:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}
out=bench/out/aa
rm -rf "$out"
mkdir -p "$out"
for set in 1 2; do
	for i in $(seq 1 "$runs"); do
		seed=$(((set - 1) * 100 + i))
		for w in $workloads; do
			echo "set $set run $i/$runs: $w --seed $seed" >&2
			line=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 2>>"$out/stderr.log" | tail -n 1)
			echo "$w $line" >>"$out/set$set.txt"
		done
	done
done
python3 - "$out" <<'EOF'
import collections, json, statistics, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
def load(path):
    vals = collections.defaultdict(list)
    for line in open(path):
        workload, doc = line.split(" ", 1)
        doc = json.loads(doc)
        if not doc["correct"] or doc["failed"]:
            sys.exit(f"{workload}: a run was incorrect or had failures: {line}")
        for name, m in doc["metrics"].items():
            vals[workload, name].append(m["value"])
    return vals
def spread(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)
a, b = load(f"{out}/set1.txt"), load(f"{out}/set2.txt")
breach = False
print("| workload | metric | set 1 median | set 2 median | apart | spread 1 | spread 2 | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        key = (w["name"], m["name"])
        if key not in a:
            continue
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        apart = abs(mb - ma) / min(ma, mb)
        sa, sb = spread(a[key]), spread(b[key])
        bad = max(apart, sa, sb) > m["bound"]
        breach |= bad
        print(f"| {w['name']} | {m['name']} | {ma:.6g} | {mb:.6g} | {apart:.1%} | {sa:.1%} | {sb:.1%} | {m['bound']:.0%} | {'BREACH' if bad else 'ok'} |")
sys.exit(1 if breach else 0)
EOF
