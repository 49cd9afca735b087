#!/usr/bin/env bash
# Run clang-tidy (config: .clang-tidy) over the tree, or over an explicit
# file list.
#
#   scripts/run_clang_tidy.sh                  # whole tree (src/ tests/ bench/ examples/)
#   scripts/run_clang_tidy.sh src/paxos/*.cc   # just these files
#   scripts/run_clang_tidy.sh --changed        # files changed vs HEAD (+ staged/untracked)
#
# TIDY_WERROR=1 promotes every enabled check to an error (exit nonzero on
# any warning) — the CI gate uses this so the lint stage is zero-warning,
# not advisory.
#
# Needs build/compile_commands.json — produced by any `cmake -B build -S .`
# (CMAKE_EXPORT_COMPILE_COMMANDS is always on). Exits 0 with a notice when
# clang-tidy is not installed, so CI on toolchain-less images degrades
# gracefully instead of failing the run.
set -euo pipefail
cd "$(dirname "$0")/.."

TIDY="${CLANG_TIDY:-clang-tidy}"
if ! command -v "$TIDY" >/dev/null 2>&1; then
  echo "run_clang_tidy: '$TIDY' not found on PATH; skipping clang-tidy (not a failure)." >&2
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
  echo "run_clang_tidy: $BUILD_DIR/compile_commands.json missing; run: cmake -B $BUILD_DIR -S ." >&2
  exit 1
fi

files=()
if [[ "${1:-}" == "--changed" ]]; then
  # Changed vs HEAD plus staged and untracked — what a pre-push lint wants.
  while IFS= read -r f; do
    [[ "$f" == *.cc || "$f" == *.h ]] && [[ -f "$f" ]] && files+=("$f")
  done < <({ git diff --name-only HEAD; git ls-files --others --exclude-standard; } | sort -u)
elif [[ $# -gt 0 ]]; then
  files=("$@")
else
  while IFS= read -r f; do
    files+=("$f")
  done < <(find src tests bench examples -name '*.cc' | sort)
fi

if [[ ${#files[@]} -eq 0 ]]; then
  echo "run_clang_tidy: nothing to lint."
  exit 0
fi

extra=()
[[ "${TIDY_WERROR:-0}" == "1" ]] && extra+=("--warnings-as-errors=*")

echo "run_clang_tidy: linting ${#files[@]} file(s) with $TIDY${extra:+ (zero-warning gate)}"
status=0
for f in "${files[@]}"; do
  # Headers are covered transitively via HeaderFilterRegex; only compile
  # translation units.
  [[ "$f" == *.h ]] && continue
  "$TIDY" -p "$BUILD_DIR" --quiet "${extra[@]}" "$f" || status=1
done
exit $status
