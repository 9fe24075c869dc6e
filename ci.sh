#!/bin/sh
# CI entry point: build everything and run the test suite (every CLI
# contract is a cram test under test/cli/).
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
