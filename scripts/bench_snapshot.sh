#!/usr/bin/env bash
# Records the repo's performance baseline: runs the microbenchmarks and
# writes their JSON report to BENCH_micro.json at the repo root (committed,
# so perf regressions show up as diffs), appends the same medians to the
# BENCH_history.jsonl trajectory, then smoke-runs bench_scale so the
# commit-path counters stay exercised.
#
# Baselines are only meaningful from an optimized build, so this script
# maintains its own Release tree (build-bench/) instead of trusting whatever
# build/ happens to contain, and it refuses to record a report from a binary
# whose self-reported "scatter_build_type" is not "release". (The benchmark
# library's own "library_build_type" field describes the system libbenchmark
# package — built without NDEBUG, it always says "debug" — not the repo code
# under test, which is how a debug baseline once slipped into the record.)
#
#   scripts/bench_snapshot.sh              # full run (dedicated Release tree)
#   BUILD_DIR=build-foo scripts/bench_snapshot.sh
#
# The pinned google-benchmark takes --benchmark_min_time as a plain number
# of seconds (no 's' suffix).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build-bench}"
MIN_TIME="${MIN_TIME:-0.3}"
REPETITIONS="${REPETITIONS:-12}"

echo "=== configure + build Release ($BUILD_DIR) ==="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j "$JOBS" \
    --target bench_micro bench_scale mc_explore

echo "=== bench_micro -> BENCH_micro.json (min_time=${MIN_TIME}s, ${REPETITIONS} interleaved repetitions) ==="
# Repetitions with random interleaving + median aggregates: this machine's
# ambient load swings single-shot timings by tens of percent, and medians
# over interleaved repetitions are the only numbers that reproduce.
"$BUILD_DIR/bench/bench_micro" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_repetitions="$REPETITIONS" \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > BENCH_micro.json.tmp

# Refuse a baseline from an unoptimized binary. The binary stamps its own
# compile mode into the report context; anything but "release" means the
# numbers are garbage and must not overwrite the committed baseline.
if ! grep -q '"scatter_build_type": "release"' BENCH_micro.json.tmp; then
  echo "bench_snapshot: refusing to record baseline — bench_micro does not" >&2
  echo "report scatter_build_type=release (found: $(grep -o '"scatter_build_type": "[a-z]*"' BENCH_micro.json.tmp || echo missing))" >&2
  rm -f BENCH_micro.json.tmp
  exit 1
fi
mv BENCH_micro.json.tmp BENCH_micro.json

# Human-readable echo of the headline numbers (medians only).
grep -E '"(name|items_per_second|avg_batch|msgs_per_op)"' BENCH_micro.json |
  grep -v "_mean\"\|_stddev\"\|_cv\"" | sed 's/^ *//' || true

echo "=== scatter-lint wall-time -> BENCH_micro.json context ==="
# Analyzer cost is tracked like any other hot path: time one full-tree
# scatter-lint run (Release binary, same tree CI gates on) and stamp it into
# the benchmark report's context block, so a rule that makes the lint pass
# crawl shows up as a baseline diff next to the timing regressions.
cmake --build "$BUILD_DIR" -j "$JOBS" --target scatter_lint
lint_seconds="$(python3 - "$BUILD_DIR" <<'PYEOF'
import subprocess
import sys
import time

build = sys.argv[1]
start = time.monotonic()
subprocess.run(
    [f"{build}/tools/scatter_lint/scatter_lint", "--root", ".",
     "--compdb", f"{build}/compile_commands.json"],
    check=True, stdout=subprocess.DEVNULL)
print(f"{time.monotonic() - start:.3f}")
PYEOF
)"
python3 - "$lint_seconds" <<'PYEOF'
import json
import sys

with open("BENCH_micro.json") as f:
    doc = json.load(f)
doc["context"]["scatter_lint_wall_seconds"] = float(sys.argv[1])
with open("BENCH_micro.json", "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PYEOF
echo "scatter-lint full tree: ${lint_seconds}s"

echo "=== bench_micro medians -> BENCH_history.jsonl ==="
# BENCH_micro.json holds only the latest snapshot. Each run also appends one
# line to the trajectory (commit, date, and every benchmark's median and
# coefficient of variation across the repetitions); lines are never rewritten.
python3 - <<'PYEOF'
import datetime
import json
import subprocess


def git(*args):
    return subprocess.run(["git", *args], capture_output=True,
                          text=True).stdout.strip()


with open("BENCH_micro.json") as f:
    doc = json.load(f)
benchmarks = {}
for b in doc["benchmarks"]:
    if b.get("run_type") != "aggregate":
        continue
    row = benchmarks.setdefault(b["run_name"], {"unit": b["time_unit"]})
    if b["aggregate_name"] == "median":
        row["median"] = b["real_time"]
    elif b["aggregate_name"] == "cv":
        row["cv"] = round(b["real_time"], 4)
entry = {
    "sha": git("rev-parse", "HEAD") or "unknown",
    "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"),
    "benchmarks": benchmarks,
}
with open("BENCH_history.jsonl", "a") as f:
    f.write(json.dumps(entry, sort_keys=True) + "\n")
print(f"appended {len(benchmarks)} medians for {entry['sha'][:12]}")
PYEOF

echo "=== obs A/B on BM_PaxosCommit -> BENCH_obs_ab.json ==="
# Monitoring-overhead baseline: the same commit-path benchmark with the full
# observability stack live (SCATTER_BENCH_OBS=on: tracing + health monitor +
# timeline) vs dormant. The committed report records both Release medians
# and the overhead ratio, so a hot-path instrumentation regression shows up
# as a diff. Budget: enabled <= 5% over disabled.
for obs_leg in off on; do
  SCATTER_BENCH_OBS="$obs_leg" "$BUILD_DIR/bench/bench_micro" \
    --benchmark_filter='^BM_PaxosCommit/8$' \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions="$REPETITIONS" \
    --benchmark_enable_random_interleaving=true \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "BENCH_obs_${obs_leg}.json.tmp"
done
python3 - <<'PYEOF'
import json

def median(path):
    with open(path) as f:
        doc = json.load(f)
    for b in doc["benchmarks"]:
        if b["name"].endswith("_median"):
            return b["real_time"]
    raise SystemExit(f"bench_snapshot: no median aggregate in {path}")

off = median("BENCH_obs_off.json.tmp")
on = median("BENCH_obs_on.json.tmp")
overhead = (on - off) / off
report = {
    "benchmark": "BM_PaxosCommit/8",
    "median_ns_obs_off": off,
    "median_ns_obs_on": on,
    "obs_overhead_fraction": round(overhead, 4),
}
with open("BENCH_obs_ab.json", "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"obs off: {off:.0f} ns  obs on: {on:.0f} ns  "
      f"overhead: {overhead * 100:+.2f}% (budget: <= 5%)")
PYEOF
rm -f BENCH_obs_off.json.tmp BENCH_obs_on.json.tmp

echo "=== bench_scale smoke -> BENCH_metrics.json ==="
# The metrics registry snapshot rides along with the perf baseline: counter
# regressions (e.g. a batching change blowing up accepts_sent) show up as
# diffs the same way timing regressions do.
rm -f BENCH_metrics.json
SCATTER_METRICS_JSON=BENCH_metrics.json "$BUILD_DIR/bench/bench_scale" --quick

echo "=== mc_explore: mutation hunts + walk throughput -> BENCH_mc.json ==="
# Model-checker baseline, one row per run of the explorer's defaults: the
# schedules and seconds the walk needs to find each seeded mutation (the
# seconds include minimizing the counterexample), then its throughput over
# a fixed number of clean split schedules. Schedule and decision counts are
# deterministic; only the timings vary.
python3 - "$BUILD_DIR" <<'PYEOF'
import json
import subprocess
import sys

explore = f"{sys.argv[1]}/tools/mc_explore"
runs = [[s, "--expect-violation"]
        for s in ("stale_ballot+mutation", "lost_merge+mutation",
                  "bootstrap_wedge+mutation", "batched_read+mutation",
                  "crash_disk+mutation", "crash_disk+first_batch_entry_only")]
runs.append(["split", "--max-schedules", "2000"])
rows = []
for scenario, *flags in runs:
    out = subprocess.run(
        [explore, "--scenario", scenario, "--counterexample", "none", *flags],
        check=True, capture_output=True, text=True).stdout
    rows.append(json.loads(out.splitlines()[-1]))
with open("BENCH_mc.json", "w") as f:
    f.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
PYEOF
cat BENCH_mc.json

echo "=== baseline recorded in BENCH_micro.json + BENCH_history.jsonl + BENCH_metrics.json + BENCH_mc.json ==="
