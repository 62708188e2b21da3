#!/bin/sh
# Tier-1 gate: build, test, and smoke-run the sharded miner, the bench
# harness and the CLI surfaces. Every gate exits non-zero when it
# fails, which stops this script.
set -eu
# Every artefact goes to one private directory, removed on exit; a serve
# daemon still running when a check fails is stopped first.
T=$(mktemp -d)
SERVE_PID=
cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$T"
}
trap cleanup EXIT
trap 'exit 1' HUP INT TERM
dune build
dune runtest
# Determinism gate: the whole suite again under randomized hash seeds.
# Invariant extraction, Figure 3 rows and snapshot bytes must not depend
# on Hashtbl iteration order ("bit-identical for every jobs >= 1").
OCAMLRUNPARAM=R dune runtest --force
# Bench smoke: mine Figure 3 on two shards.
dune exec bench/main.exe -- fig3 -j 2
# The bench runs every experiment id it is given, in order; an unknown
# id anywhere exits 1 before any experiment runs.
dune exec bench/main.exe -- tab6 tab7 | tee "$T/tab67.out"
grep -q '^===== Table 6:' "$T/tab67.out"
grep -q '^===== Table 7:' "$T/tab67.out"
if dune exec bench/main.exe -- nosuch tab6 > "$T/nosuch.out" 2>&1; then
  echo "bench accepted an unknown experiment id"; exit 1
fi
if grep -q '^=====' "$T/nosuch.out"; then
  echo "bench ran an experiment before rejecting an unknown id"; exit 1
fi
# Flight-recorder gate: a provenance mine must attribute at least one
# death per invariant family — candidate, killing workload, record —
# while writing both telemetry artifacts in one run.
dune exec bin/scifinder.exe -- mine -j 2 -w helloworld -w basicmath \
  --explain "" --limit 3 --metrics "$T/run.jsonl" \
  --trace-out "$T/run.trace.json" | tee "$T/explain.out"
for fam in oneof mod relation diff scale; do
  grep -q "^  $fam .*killed by .*(record " "$T/explain.out"
done
# The Chrome trace must validate structurally (strict parse, consistent
# pids, non-negative timestamps/durations) and be Perfetto-loadable:
# no mine.shard span may float as a root.
dune exec bench/check_json.exe -- "$T/run.trace.json" "$T/run.jsonl"
if grep -q '"name":"mine.shard".*"parent":null' "$T/run.trace.json"; then
  echo "a mine.shard span is a root in the Chrome trace"; exit 1
fi
# The report command digests the same stream: span tree, candidate
# funnel, and zero skipped lines on our own telemetry.
dune exec bin/scifinder.exe -- report "$T/run.jsonl" | tee "$T/report.out"
grep -q 'pipeline.mine' "$T/report.out"
grep -q 'candidate funnel' "$T/report.out"
grep -q 'skipped lines: 0' "$T/report.out"
# The SCI-deploying commands optimise and identify through the pipeline,
# so their telemetry carries both phase spans.
dune exec bin/scifinder.exe -- identify -b b10 \
  --metrics "$T/identify.jsonl" > /dev/null
dune exec bin/scifinder.exe -- report "$T/identify.jsonl" \
  | tee "$T/identify_report.out"
grep -q 'pipeline.optimize' "$T/identify_report.out"
grep -q 'pipeline.identify' "$T/identify_report.out"
# Campaign CLI smoke: the seed-42, 200-mutant campaign (one reset machine,
# streamed runs stopped at the first firing) prints the pinned detection
# count and fingerprint, and its telemetry stream validates and reports
# the campaign span.
dune exec bin/scifinder.exe -- campaign --metrics "$T/campaign.jsonl" \
  | tee "$T/campaign.out"
grep -q '^72/200 mutants detected' "$T/campaign.out"
grep -q '^fingerprint 05410b8b9e7cbc6ba762f03d9bf0159d$' "$T/campaign.out"
dune exec bench/check_json.exe -- "$T/campaign.jsonl"
dune exec bin/scifinder.exe -- report "$T/campaign.jsonl" \
  | tee "$T/campaign_report.out"
grep -q 'pipeline.campaign' "$T/campaign_report.out"
# Telemetry overhead budget: obsbench prints the estimated null-sink
# overhead; the gate is < 2%.
dune exec bench/main.exe -- obsbench
# Incremental-mining gate: a warm cache run must be bit-identical to the
# cold run (invariant set + Figure 3 rows), reject damaged snapshots,
# and come in at least 5x faster.
dune exec bench/main.exe -- cachebench
# Fuzzbench gate: the fixed-seed generated corpus must reach the pinned
# minimum of new coverage points over the 17 hand-written workloads, be
# byte-identical across same-seed reruns, mine bit-identically through a
# warm snapshot cache, keep the Figure 3 convergence shape, and not
# increase identification false positives.
dune exec bench/main.exe -- fuzzbench -j 2
# Hot-path gate: the streaming miner must beat the frozen pre-change
# miner (same harness, same corpus) by the acceptance floor, reach
# byte-identical engine state streaming vs replay, and agree with
# sharded/parallel mining on the invariant set and Figure 3 rows.
dune exec bench/main.exe -- minebench
# Mutbench gate: the compiled assertion battery must reproduce the
# interpretive oracle's firing sequence exactly on the full corpus while
# running at least 2x faster, match the Table 1 detection baseline, and
# the 200-mutant campaign must classify every mutant into the Section 5.5
# taxonomy with a seed-stable fingerprint.
dune exec bench/main.exe -- mutbench
# Lakebench gate: replaying the on-disk trace lake must be bit-identical
# (SCIFSNAP engine bytes) to live simulation at 1x and at the 100x
# replicated corpus, stream records off disk at least as fast as the
# simulator produces them, and reject a torn tail as corrupt. The
# parallel lane shards the replay at -j 4: its engine digest must equal
# the sequential one, a warm summary cache populated at -j 1 must hit
# from a -j 4 session with the same digest, and the speedup must clear
# the 1.8x floor wherever the host has >= 4 cores (waived below that —
# the byte-identity legs still bind).
dune exec bench/main.exe -- lakebench
# The lake round-trips through the CLI: record one workload's segment
# with trace --record-out, then mine it back out-of-core — sharded
# across 4 domains, which must not change a single reported number.
mkdir "$T/lake"
dune exec bin/scifinder.exe -- trace pi --limit 0 --record-out "$T/lake/pi.seg" | tee "$T/lakecli.out"
grep -q "recorded 477 records to $T/lake/pi.seg" "$T/lakecli.out"
dune exec bin/scifinder.exe -- mine --from-lake "$T/lake" -j 4 --limit 1 | tee "$T/lakemine.out"
grep -q 'lake: 477 records from 1 segments' "$T/lakemine.out"
# Servebench gate: hundreds of concurrent synthetic clients against the
# in-process mining service must sustain >= 0.8x the direct batch mining
# throughput on the same worker count, record a p99 job latency, answer
# window overflow with explicit busy, and stay byte-identical
# (SCIFSNAP engine digest) to a direct sequential session.
dune exec bench/main.exe -- servebench
# Serve CLI smoke: a real daemon on a Unix socket, driven by the client
# subcommands, then SIGTERM — the graceful path must drain, exit 0, and
# flush a parseable telemetry stream (the signal-flush guarantee).
dune exec bin/scifinder.exe -- serve --socket "$T/serve.sock" \
  --metrics "$T/serve.jsonl" -j 2 &
SERVE_PID=$!
i=0
while [ ! -S "$T/serve.sock" ]; do
  i=$((i + 1)); [ $i -le 100 ] || { echo "serve socket never appeared"; exit 1; }
  sleep 0.1
done
dune exec bin/scifinder.exe -- client mine --socket "$T/serve.sock" -w pi | tee "$T/servecli.out"
grep -q 'mined 477 records (session total 477)' "$T/servecli.out"
dune exec bin/scifinder.exe -- client mine --socket "$T/serve.sock" -w helloworld | tee "$T/servecli2.out"
grep -q 'mined 329 records (session total 806)' "$T/servecli2.out"
# The daemon's Figure 3 row diffs the session's per-point key cache
# against the previous request's: the batch row for the same two steps.
grep -Eq '^helloworld +2330 unmodified +4460 fresh +553 deleted +6790 total$' \
  "$T/servecli2.out"
dune exec bin/scifinder.exe -- client status --socket "$T/serve.sock" | tee "$T/servestatus.out"
grep -q 'p99 job' "$T/servestatus.out"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=
test -s "$T/serve.jsonl"
dune exec bench/check_json.exe -- "$T/serve.jsonl"
