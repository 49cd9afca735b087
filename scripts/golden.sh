#!/usr/bin/env bash
# Golden seeded outputs: the fast drivers' stdout and trace_demo's Chrome
# trace JSON plus its schedule digest, committed under tests/golden/. Every
# run is deterministic from its seed (and the same on every transport, with
# or without persistence), so any byte of difference means the simulated
# schedule or a printed figure changed.
#
#   scripts/golden.sh                       # diff every golden file
#   scripts/golden.sh bench_chirpchat       # diff one (ctest runs them so)
#   scripts/golden.sh --update              # rewrite the golden files
#   BUILD_DIR=build-foo scripts/golden.sh   # drivers from another tree
#
# Golden names: bench_group_ops, bench_load_balance, bench_chirpchat,
# bench_group_resilience (stdout) and trace_demo (the trace JSON followed by
# the `schedule:` line of its stdout). Every golden file ends with that
# digest, so a schedule change shows even when no printed figure or span
# moves. A change that moves the schedule on purpose regenerates them with
# --update in the same commit.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
GOLDEN_DIR=tests/golden
ALL=(bench_group_ops bench_load_balance bench_chirpchat bench_group_resilience
     trace_demo)

update=0
names=()
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
    *) names+=("$arg") ;;
  esac
done
[[ ${#names[@]} -eq 0 ]] && names=("${ALL[@]}")

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Runs one driver; prints the path of the output that is compared.
produce() {
  local name="$1"
  case "$name" in
    bench_*)
      "$BUILD_DIR/bench/$name" > "$tmp/$name.out"
      echo "$tmp/$name.out" ;;
    trace_demo)
      "$BUILD_DIR/examples/trace_demo" "$tmp/trace.json" "$tmp/metrics.json" \
          "$tmp/timeline.json" > "$tmp/trace_demo.stdout"
      { cat "$tmp/trace.json"; echo
        grep '^schedule: ' "$tmp/trace_demo.stdout"; } > "$tmp/trace_demo.out"
      echo "$tmp/trace_demo.out" ;;
    *)
      echo "golden: unknown name '$name' (one of: ${ALL[*]})" >&2
      return 2 ;;
  esac
}

golden_file() { echo "$GOLDEN_DIR/$1.out"; }

failed=0
for name in "${names[@]}"; do
  out="$(produce "$name")"
  golden="$(golden_file "$name")"
  if [[ $update -eq 1 ]]; then
    cp "$out" "$golden"
    echo "golden: wrote $golden"
  elif cmp -s "$out" "$golden"; then
    echo "golden: $name matches $golden"
  else
    echo "golden: $name differs from $golden" >&2
    diff -u "$golden" "$out" | head -40 >&2 || true
    failed=1
  fi
done
exit "$failed"
