#!/bin/sh
# Property soak: run each test executable given on the command line under
# QCHECK_SEED = 1..100 (two seeds at a time) and list the seeds at which
# it fails, with the failing cases.  Exits 1 if any seed fails.
#
#   dune build @test/soak
#
# A plain `dune runtest` draws every property from the seed fixed in
# test/support.ml; this sweep looks past that one seed.  Reproduce a
# failure with `QCHECK_SEED=<seed> dune exec test/<exe>`.
set -u
seeds=100
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT
status=0
run() {
  mkdir -p "$logs/alcotest-$2"
  QCHECK_SEED=$2 "$1" -o "$logs/alcotest-$2" > "$logs/out-$2" 2>&1 ||
    echo "$2" >> "$logs/failed"
}
for exe in "$@"; do
  case $exe in */*) ;; *) exe=./$exe ;; esac
  rm -f "$logs/failed"
  seed=1
  while [ "$seed" -le "$seeds" ]; do
    run "$exe" "$seed" &
    [ "$seed" -lt "$seeds" ] && run "$exe" $((seed + 1)) &
    wait
    seed=$((seed + 2))
  done
  name=$(basename "$exe")
  if [ -s "$logs/failed" ]; then
    status=1
    for s in $(sort -n "$logs/failed"); do
      cases=$(grep -o '\[FAIL\].*' "$logs/out-$s" | sed 's/\[FAIL\] *//' | tr -s ' ' |
        paste -sd ';' -)
      echo "$name: seed $s fails: $cases"
    done
  else
    echo "$name: all $seeds seeds pass"
  fi
done
exit $status
