#!/bin/sh
# Arena-scale smoke test: build a 50,000-switch fat-tree (k = 200), run
# alpha-sampling through the arena path cold into a temporary cache, then
# warm at --jobs 1 and --jobs 4, and assert the outputs are byte-identical
# once the wall-clock line is normalized away.  The printed system digest
# covers every stored slice in canonical pair order, so it must agree
# across all runs, the warm runs must record cache hits, and every run
# must clear the 4x bytes/pair reduction gate (the bench exits 1 below
# it).  Also checks that `sso cache stat` reports the alpha-sample
# payloads the cold run deposited.  A one-tree Räcke forest rides along
# (--scale-racke-trees 1): its printed digest must agree between the cold
# run and both warm runs, which read the forest back from the cache.
#
# $BENCH and $SSO override the binary locations (the @ci rule points them
# at the freshly built executables).
set -eu

BENCH="${BENCH:-_build/default/bench/main.exe}"
SSO="${SSO:-_build/default/bin/sso.exe}"

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM
cache="$dir/cache"

run() {
  jobs="$1"
  out="$2"
  shift 2
  "$BENCH" --scale --scale-k 200 --scale-pairs 256 --scale-racke-trees 1 \
    --jobs "$jobs" --cache-dir "$cache" "$@" > "$dir/$out.raw"
  # The materialize and racke build lines are wall-clock; everything else
  # is deterministic.
  sed -e 's/^materialize: .*/materialize: X/' \
    -e 's/^racke build: .*/racke build: X/' "$dir/$out.raw" > "$dir/$out"
}

run 1 cold.txt --json "$dir/cold.json"
run 1 warm1.txt --json "$dir/warm1.json"
run 4 warm4.txt --json "$dir/warm4.json"
cmp "$dir/cold.txt" "$dir/warm1.txt"
cmp "$dir/cold.txt" "$dir/warm4.txt"

grep -q '^system digest: [0-9a-f]\{16\}$' "$dir/cold.txt"
grep -q '^scale: ok' "$dir/cold.txt"
grep -q '^racke forest digest: [0-9a-f]\{16\}$' "$dir/cold.txt"
grep -q '^racke: ok' "$dir/cold.txt"

# The cold run must deposit the alpha-sample payload; both warm runs must
# read it back.
grep -q '"miss": [1-9]' "$dir/cold.json"
grep -q '"hit": [1-9]' "$dir/warm1.json"
grep -q '"hit": [1-9]' "$dir/warm4.json"

"$SSO" cache stat --cache-dir "$cache" > "$dir/stat.txt"
grep -q 'alpha-sample' "$dir/stat.txt"

digest=$(sed -n 's/^system digest: //p' "$dir/cold.txt")
echo "scale smoke: OK (digest=$digest)"
