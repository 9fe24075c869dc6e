#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it.  Run from the
# repository root:
#   bash perf/run.sh --workload cube-ratio --seed 1 --seconds 15 --trace 0
#   bash perf/run.sh --workload all --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --build-dir .bench_build --cache=disabled ./perf/main.exe 1>&2
exe=./.bench_build/default/perf/main.exe
if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
  shift 2
  for w in fattree-install wan-churn cube-ratio; do
    "$exe" --workload "$w" "$@"
  done
else
  exec "$exe" "$@"
fi
