#!/usr/bin/env bash
# Full CI gate: the test suite (whose cluster tests run under the continuous
# invariant auditor) must pass clean under AddressSanitizer and
# UndefinedBehaviorSanitizer, and clang-tidy must be quiet on changed files.
#
#   scripts/ci.sh                 # everything (two sanitized builds + lint)
#   scripts/ci.sh address         # just the ASan leg
#   scripts/ci.sh undefined       # just the UBSan leg
#   scripts/ci.sh lint            # scatter-lint (whole tree) + clang-tidy (changed files)
#   scripts/ci.sh bench           # just the benchmark smoke (plain build + perfbench)
#   scripts/ci.sh obs             # traced sim + trace/metrics JSON schema check
#   scripts/ci.sh wire            # full suite: serializing + audit transports
#   scripts/ci.sh mc              # model-checker walks of the clean scenarios + seeded-mutation hunts
#   scripts/ci.sh durability      # full suite with persistence on (serializing) + mc crash-with-disk smoke
#   scripts/ci.sh golden          # seeded driver outputs against tests/golden/ (scripts/golden.sh)
#
# Build trees go to build-asan/ and build-ubsan/ so they never disturb the
# developer's plain build/.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

run_sanitized() {
  local san="$1"
  local dir="build-asan"
  [[ "$san" == "undefined" ]] && dir="build-ubsan"
  echo "=== [$san] configure + build ($dir) ==="
  cmake -B "$dir" -S . -DSCATTER_SANITIZE="$san" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$dir" -j "$JOBS"
  echo "=== [$san] ctest ==="
  ( cd "$dir" && ctest --output-on-failure -j "$JOBS" )
}

run_bench_smoke() {
  # Benchmarks must keep building and running; this is a smoke, not a
  # measurement (use scripts/bench_snapshot.sh to record the baseline).
  # Note: the pinned google-benchmark wants --benchmark_min_time as a plain
  # number of seconds, no 's' suffix.
  local bdir="${BUILD_DIR:-build}"
  echo "=== bench smoke ($bdir) ==="
  if [[ ! -x "$bdir/bench/bench_micro" ]]; then
    cmake -B "$bdir" -S .
    cmake --build "$bdir" -j "$JOBS"
  fi
  "$bdir/bench/bench_micro" --benchmark_min_time=0.01
  "$bdir/bench/bench_scale" --quick
  # Host-cost benchmark: each seed run twice untraced and twice traced must
  # agree, and the correctness gate must pass.
  for workload in kv_write chirpchat; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --self-check
  done
}

run_obs_check() {
  # Flight-recorder gate: run a short traced + health-monitored sim
  # (two-group cluster, client ops, a cross-group merge) over the
  # serializing transport, and validate the exported Chrome trace-event
  # JSON, metrics JSON and scatter.timeline.v1 timeline against their
  # stable schemas. scatter-top must then render the recorded timeline.
  local bdir="${BUILD_DIR:-build}"
  echo "=== obs check ($bdir) ==="
  if [[ ! -x "$bdir/examples/trace_demo" || ! -x "$bdir/tools/scatter_top" ]]; then
    cmake -B "$bdir" -S .
    cmake --build "$bdir" -j "$JOBS"
  fi
  local tmp
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' RETURN
  SCATTER_TRANSPORT=serializing "$bdir/examples/trace_demo" \
      "$tmp/trace.json" "$tmp/metrics.json" "$tmp/timeline.json"
  python3 scripts/check_obs_json.py \
      "$tmp/trace.json" "$tmp/metrics.json" "$tmp/timeline.json"
  echo "=== obs check: scatter-top render ==="
  "$bdir/tools/scatter_top" "$tmp/timeline.json"
}

run_wire() {
  # Wire-format gate: the ENTIRE test suite must pass with every delivered
  # message round-tripped through encode -> bytes -> decode (serializing),
  # and again with the re-decoded copy compared against the original
  # (audit). Clusters and harnesses construct their transport via
  # wire::MakeNetwork, which honors SCATTER_TRANSPORT, so no test needs to
  # know this is happening.
  local bdir="${BUILD_DIR:-build}"
  if [[ ! -d "$bdir" ]]; then
    cmake -B "$bdir" -S .
  fi
  cmake --build "$bdir" -j "$JOBS"
  local transport
  for transport in serializing audit; do
    echo "=== wire: full ctest, transport=$transport ($bdir) ==="
    ( cd "$bdir" && SCATTER_TRANSPORT="$transport" \
          ctest --output-on-failure -j "$JOBS" )
  done
}

run_mc() {
  # Model-checker stage, two legs, both on the explorer's defaults (the
  # random walk at depth 40, walk seed 1). (1) Every clean scenario must
  # stay clean for a fixed schedule count, so every machine walks the same
  # schedules; crash_disk runs in the durability stage. (2) Each seeded
  # bug (<scenario>+mutation) must still be found.
  local bdir="${BUILD_DIR:-build}"
  local schedules=300
  if [[ ! -x "$bdir/tools/mc_explore" ]]; then
    cmake -B "$bdir" -S .
    cmake --build "$bdir" -j "$JOBS"
  fi
  local scenario stats
  for scenario in split stale_ballot lost_merge bootstrap_wedge batched_read \
                  crash_amnesia; do
    echo "=== mc: $schedules walks of $scenario stay clean ($bdir) ==="
    stats="$("$bdir/tools/mc_explore" --scenario "$scenario" \
        --max-schedules "$schedules" --counterexample none)"
    echo "$stats"
    if [[ "$stats" != *"\"schedules\": $schedules,"* ]]; then
      echo "mc: $scenario stopped before $schedules schedules" >&2
      return 1
    fi
  done
  for scenario in stale_ballot lost_merge bootstrap_wedge batched_read \
                  crash_disk; do
    echo "=== mc: the walk must find $scenario+mutation ($bdir) ==="
    "$bdir/tools/mc_explore" --scenario "$scenario+mutation" \
        --budget-seconds 60 --counterexample none --expect-violation
  done
}

run_durability() {
  # Durability gate, two legs. (1) The ENTIRE test suite must pass with
  # every cluster journaling through the simulated disk (SCATTER_PERSIST=on)
  # while each message round-trips through the wire (serializing transport):
  # persistence must be behavior-neutral absent crashes, so the same suite
  # that passes memory-only must pass journaled. (2) A random-walk smoke of
  # the crash-with-disk mc scenario: crashed-and-restarted replicas must
  # recover from their own WAL + snapshot (no state transfer) with the
  # durability invariant audited after every decision.
  local bdir="${BUILD_DIR:-build}"
  if [[ ! -d "$bdir" ]]; then
    cmake -B "$bdir" -S .
  fi
  cmake --build "$bdir" -j "$JOBS"
  echo "=== durability: full ctest, SCATTER_PERSIST=on transport=serializing ($bdir) ==="
  ( cd "$bdir" && SCATTER_PERSIST=on SCATTER_TRANSPORT=serializing \
        ctest --output-on-failure -j "$JOBS" )
  echo "=== durability: mc crash-with-disk smoke ==="
  "$bdir/tools/mc_explore" --scenario crash_disk \
      --budget-seconds 20 --counterexample none
}

run_golden() {
  # Golden gate: the seeded drivers' outputs, each ending with its schedule
  # digest, must match tests/golden/ byte for byte (scripts/golden.sh).
  local bdir="${BUILD_DIR:-build}"
  echo "=== golden: seeded outputs against tests/golden/ ($bdir) ==="
  if [[ ! -d "$bdir" ]]; then
    cmake -B "$bdir" -S .
  fi
  cmake --build "$bdir" -j "$JOBS" --target bench_group_ops \
      bench_load_balance bench_chirpchat bench_group_resilience trace_demo
  BUILD_DIR="$bdir" scripts/golden.sh
}

run_lint() {
  # Stage 1: scatter-lint (tools/scatter_lint) — determinism, layering and
  # protocol-hygiene rules, zero findings allowed. It prints a per-rule
  # findings/suppressions summary and exits nonzero on any finding.
  local bdir="${BUILD_DIR:-build}"
  [[ -f build-asan/compile_commands.json ]] && bdir=build-asan
  echo "=== scatter-lint (zero-warning gate, $bdir) ==="
  if [[ ! -f "$bdir/compile_commands.json" ]]; then
    cmake -B "$bdir" -S .
  fi
  cmake --build "$bdir" -j "$JOBS" --target scatter_lint
  # The JSON pass keeps the machine-readable output schema honest.
  "$bdir/tools/scatter_lint/scatter_lint" --root . \
      --compdb "$bdir/compile_commands.json" --format=json \
      | python3 -m json.tool > /dev/null
  "$bdir/tools/scatter_lint/scatter_lint" --root . \
      --compdb "$bdir/compile_commands.json"

  # Stage 2: clang-tidy on changed files. Any warning fails the stage.
  echo "=== clang-tidy (changed files, zero-warning gate) ==="
  BUILD_DIR="$bdir" TIDY_WERROR=1 scripts/run_clang_tidy.sh --changed
}

case "${1:-all}" in
  address|undefined) run_sanitized "$1" ;;
  lint) run_lint ;;
  bench) run_bench_smoke ;;
  obs) run_obs_check ;;
  wire) run_wire ;;
  mc) run_mc ;;
  durability) run_durability ;;
  golden) run_golden ;;
  all)
    run_sanitized address
    run_sanitized undefined
    run_bench_smoke
    run_obs_check
    run_wire
    run_mc
    run_durability
    run_golden
    run_lint
    echo "=== CI green: ASan + UBSan suites clean, bench smoke ok, obs export valid, wire suites clean, mc walks clean + mutations found, durability suite + smoke clean, golden outputs match, scatter-lint + clang-tidy zero-warning ==="
    ;;
  *)
    echo "usage: $0 [address|undefined|lint|bench|obs|wire|mc|durability|golden|all]" >&2
    exit 2
    ;;
esac
