#!/bin/sh
# Fault-injection smoke test: `sso faults sweep` output is byte-identical
# at --jobs 1 and --jobs 4 on a torus and a fat-tree, sweeps cache
# through the artifact store (warm runs record hits and stay
# byte-identical modulo the hit counters), the fault.* trace events are
# emitted, and the exit-code contract (10 for an unreadable store) holds.
# The mid-flight timeline runs are pinned in full by test/cli/simulate.t.
. "$(dirname "$0")/smoke_lib.sh"

# Jobs-invariance: singles sweep on a torus, SRLG sweep on a fat-tree.
"$SSO" faults sweep --family torus --size 4 --json --jobs 1 > "$dir/torus.j1"
"$SSO" faults sweep --family torus --size 4 --json --jobs 4 > "$dir/torus.j4"
cmp "$dir/torus.j1" "$dir/torus.j4" || {
  echo "faults_smoke: torus sweep differs between --jobs 1 and --jobs 4" >&2
  exit 1
}
"$SSO" faults sweep --family fat-tree --size 4 --scenarios srlg --json --jobs 1 \
  > "$dir/ft.j1"
"$SSO" faults sweep --family fat-tree --size 4 --scenarios srlg --json --jobs 4 \
  > "$dir/ft.j4"
cmp "$dir/ft.j1" "$dir/ft.j4" || {
  echo "faults_smoke: fat-tree SRLG sweep differs between --jobs 1 and --jobs 4" >&2
  exit 1
}

# Caching: a cold sweep misses, a warm one hits, and the reports are
# byte-identical modulo the cache counters themselves.
"$SSO" faults sweep --family torus --size 4 --recovery --json \
  --cache-dir "$dir/store" > "$dir/cold.json"
"$SSO" faults sweep --family torus --size 4 --recovery --json \
  --cache-dir "$dir/store" > "$dir/warm.json"
grep -q '"cache": {"hit": 0' "$dir/cold.json" || {
  echo "faults_smoke: cold sweep should start from an empty store" >&2
  exit 1
}
grep '"cache"' "$dir/warm.json" | grep -q '"hit": 0' && {
  echo "faults_smoke: warm sweep recorded no cache hits" >&2
  exit 1
}
grep -v '"cache"' "$dir/cold.json" > "$dir/cold.norm"
grep -v '"cache"' "$dir/warm.json" > "$dir/warm.norm"
cmp "$dir/cold.norm" "$dir/warm.norm" || {
  echo "faults_smoke: warm sweep output differs from cold" >&2
  exit 1
}

# Tracing: the sweep emits fault.* spans and per-scenario report events.
"$SSO" faults sweep --family torus --size 4 --json --trace "$dir/sweep.jsonl" \
  > /dev/null
head -1 "$dir/sweep.jsonl" | grep -q '"schema":"sso-trace","version":1' || {
  echo "faults_smoke: bad or missing trace header" >&2
  exit 1
}
grep -q '"name":"fault.report"' "$dir/sweep.jsonl" || {
  echo "faults_smoke: no fault.report events in the trace" >&2
  exit 1
}
grep -q 'fault.sweep' "$dir/sweep.jsonl" || {
  echo "faults_smoke: no fault.sweep span in the trace" >&2
  exit 1
}

# Exit code 10 for an unreadable store path.
expect_exit 10 "unreadable store" \
  "$SSO" faults sweep --family torus --size 4 --cache-dir /dev/null/nope

echo "faults_smoke: ok"
