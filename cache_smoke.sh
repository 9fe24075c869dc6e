#!/bin/sh
# Artifact-cache smoke test: run E5 cold into a temporary cache directory,
# re-run warm at --jobs 1 and --jobs 4, and assert the three outputs are
# byte-identical with at least one recorded cache hit on the warm runs.
# The `sso` side of the cache contract (cold/warm `sso route`, the
# `sso cache` exit codes 0/10/11) is the cram test test/cli/cache.t.
. "$(dirname "$0")/smoke_lib.sh"
cache="$dir/cache"

run() {
  jobs="$1"
  shift
  "$BENCH" --experiment E5 --no-timing --jobs "$jobs" --cache-dir "$cache" "$@"
}

run 1 > "$dir/cold.txt"
run 1 > "$dir/warm1.txt"
run 4 > "$dir/warm4.txt"
cmp "$dir/cold.txt" "$dir/warm1.txt"
cmp "$dir/cold.txt" "$dir/warm4.txt"

run 1 --metrics > "$dir/metrics.txt"
hits=$(awk '$1 == "artifact.hit" { print $2 }' "$dir/metrics.txt")
test -n "$hits"
test "$hits" -gt 0

echo "cache smoke: OK (warm hits=$hits)"
