#!/usr/bin/env bash
# Build pfdrl_e2e from this checkout's sources into .bench_build at the
# checkout root (configured once, then rebuilt incrementally) and run it
# with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload paper_pfdrl --seed 7 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the
# benchmark's result object. Exits non-zero if the sources are missing
# or the build fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi

{
  if [[ ! -f "$build/Makefile" ]]; then
    cmake -S "$root/bench/e2e" -B "$build" -G "Unix Makefiles" \
      -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target pfdrl_e2e -j "$jobs"
} >&2

exec "$build/pfdrl_e2e" "$@"
