#!/bin/sh
# CI entry point: build everything, run the test suite, then smoke-test the
# parallel engine by running the E3 adversary experiment on 2 worker
# domains (its output is deterministic for any job count), the kernel
# micro-benchmarks by validating their JSON schema (the tracing
# subsystem, a kernel trace recorded at two job counts with identical
# event sequences and the `sso trace` analyzers over it, is the cram
# test test/cli/trace.t, run by the test suite), the fault-injection
# subsystem via `sso faults` (jobs-invariant sweeps, cached warm sweeps;
# the mid-flight failover timelines are pinned by the
# test/cli/simulate.t cram test), the arena path storage at scale
# (--scale on a 50k-switch fat-tree, warm-cache byte-identical to cold,
# bytes/pair reduction gate; the routing service's 10k-update churn
# replay, byte-identical at --jobs 1 and 4 with exit codes 10/11, is the
# cram test test/cli/serve.t), the telemetry layer (a --metrics-out
# Prometheus exposition scrape validated line by line, the --slo-p99-ms
# burn exit, and jobs-invariant `sso trace flame` folded stacks), and
# the crash-safety layer via the chaos harness (kill-and-resume
# digest-identical at several ticks, bit-flipped streams always exit 11,
# faulted replays jobs-invariant; the bit-flipped checkpoint lives in the
# cram test test/cli/checkpoint.t, run by the test suite).
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
run_step ./kernels_smoke.sh
run_step ./faults_smoke.sh
run_step ./scale_smoke.sh
run_step ./obs_smoke.sh
run_step ./chaos_smoke.sh
