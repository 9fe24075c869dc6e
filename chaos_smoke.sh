#!/bin/sh
# Chaos smoke test: the crash-safety contract of DESIGN.md §14.
#
#   1. Kill a checkpointing replay at several ticks (exit 137) and resume
#      each time: the final routing digest must be byte-identical to an
#      uninterrupted replay, at --jobs 1 and --jobs 4.
#   2. Replay a fault timeline (worst-k adversary live) at --jobs 1 and
#      --jobs 4: the full JSON reports must be byte-identical.
#   3. Flip one byte mid-stream: exit 11, never wrong output.
#   4. A stream that parses but corrupts mid-replay (endpoint outside the
#      graph) under --metrics-out: exit 11, the last good metrics
#      snapshot survives, and no stale .tmp is left behind.
#
# A bit-flipped checkpoint (exit 11, empty stdout) and a resume under the
# wrong sampler seed are pinned by the cram test test/cli/checkpoint.t,
# which `dune runtest` runs.
. "$(dirname "$0")/smoke_lib.sh"

stream="$dir/stream.jsonl"
"$SSO" serve generate --family torus --size 4 --ticks 60 --pairs 32 \
  --churn 0.3 --rate-churn 0.2 -o "$stream" > /dev/null

replay() {
  "$SSO" serve replay "$stream" --family torus --size 4 --json "$@" \
    2> /dev/null
}
digest_of() {
  sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' "$1" | tail -1
}

replay > "$dir/ref.json"
ref=$(digest_of "$dir/ref.json")
test -n "$ref" || { echo "chaos_smoke: no reference digest" >&2; exit 1; }

# --- kill and resume ---------------------------------------------------
for crash in 7 23 41; do
  for jobs in 1 4; do
    ckpt="$dir/ckpt.$crash.$jobs"
    expect_exit 137 "injected crash at tick $crash" \
      "$SSO" serve replay "$stream" --family torus --size 4 --json \
      --checkpoint-every 5 --checkpoint-dir "$ckpt" --crash-after "$crash" \
      --jobs "$jobs"
    ls "$ckpt"/ckpt-*.bin > /dev/null || {
      echo "chaos_smoke: no checkpoint written before the tick-$crash crash" >&2
      exit 1
    }
    replay --checkpoint-dir "$ckpt" --resume --jobs "$jobs" \
      > "$dir/resumed.json"
    got=$(digest_of "$dir/resumed.json")
    test "$got" = "$ref" || {
      echo "chaos_smoke: resume after tick-$crash crash (jobs $jobs)" \
        "diverged: $got != $ref" >&2
      exit 1
    }
  done
done

# --- fault timeline, jobs-invariant ------------------------------------
replay --faults worst:3@15-40 --jobs 1 > "$dir/faults.j1.json"
replay --faults worst:3@15-40 --jobs 4 > "$dir/faults.j4.json"
cmp "$dir/faults.j1.json" "$dir/faults.j4.json" || {
  echo "chaos_smoke: faulted replay differs between --jobs 1 and --jobs 4" >&2
  exit 1
}
grep -q '"failed_edges": [1-9]' "$dir/faults.j1.json" || {
  echo "chaos_smoke: fault timeline never took an edge down" >&2
  exit 1
}

# --- bit-flipped stream: exit 11 ---------------------------------------
cp "$stream" "$dir/flipped.jsonl"
mid=$(($(wc -c < "$stream") / 2))
printf 'X' | dd of="$dir/flipped.jsonl" bs=1 seek="$mid" count=1 \
  conv=notrunc 2> /dev/null
expect_exit 11 "bit-flipped stream" \
  "$SSO" serve replay "$dir/flipped.jsonl" --family torus --size 4

# --- mid-replay corruption under --metrics-out: no stale .tmp ----------
events=$(($(wc -l < "$stream") - 1))
{
  echo "{\"schema\":\"sso-serve-stream\",\"version\":1,\"events\":$((events + 1))}"
  sed 1d "$stream"
  echo '{"tick":99,"src":0,"dst":3000,"op":"arrive","rate":1}'
} > "$dir/bad_tail.jsonl"
expect_exit 11 "mid-replay corruption" \
  "$SSO" serve replay "$dir/bad_tail.jsonl" --family torus --size 4 \
  --metrics-out "$dir/metrics.prom"
test -s "$dir/metrics.prom" || {
  echo "chaos_smoke: last good metrics snapshot missing" >&2
  exit 1
}
if ls "$dir"/metrics.prom.tmp* > /dev/null 2>&1; then
  echo "chaos_smoke: stale metrics .tmp left after mid-replay failure" >&2
  exit 1
fi

echo "chaos_smoke: ok"
