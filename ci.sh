#!/bin/sh
# CI entry point: build everything, run the test suite (every CLI
# contract is a cram test under test/cli/), then the two slower runs kept
# out of it: the E3 adversary experiment on 2 worker domains (its output
# is deterministic for any job count) and the arena-scale smoke test
# (--scale on a 50k-switch fat-tree, warm-cache byte-identical to cold,
# bytes/pair reduction gate).
#
# Fails fast: the first failing step stops the run, and the last stderr
# line names the step that broke.
set -eu

run_step() {
  echo "+ $*" >&2
  "$@" || {
    rc=$?
    echo "ci.sh: FAILED in $* (exit $rc)" >&2
    exit "$rc"
  }
}

run_step dune build
run_step dune runtest
run_step dune exec bench/main.exe -- --experiment E3 --no-timing --jobs 2
run_step ./scale_smoke.sh
