#!/bin/sh
# Tier-1 gate: build, test, and smoke-run the sharded miner and the
# telemetry-instrumented bench harness.
set -eu
dune build
dune runtest
# Determinism gate: the whole suite again under randomized hash seeds.
# Invariant extraction, Figure 3 rows and snapshot bytes must not depend
# on Hashtbl iteration order ("bit-identical for every jobs >= 1").
OCAMLRUNPARAM=R dune runtest --force
# Bench smoke: mine Figure 3 on two shards with the JSONL sink attached;
# the run must leave a parseable BENCH_pipeline.json and metrics stream.
rm -f BENCH_pipeline.json BENCH_metrics.jsonl
dune exec bench/main.exe -- fig3 -j 2 --metrics
test -s BENCH_pipeline.json
test -s BENCH_metrics.jsonl
dune exec bench/check_json.exe -- BENCH_pipeline.json BENCH_metrics.jsonl
# Bench-trend gate: the synthetic-regression selftest must bite, the
# fresh headline numbers append to the history, and the latest entry
# must sit within 20% of the trailing median (fresh histories pass
# trivially). Every gate below — these two and each gated bench/main.exe
# experiment — exits non-zero when it fails, which stops this script.
dune exec bench/trend.exe -- selftest
dune exec bench/trend.exe -- record BENCH_pipeline.json
dune exec bench/trend.exe -- check
# Flight-recorder gate: a provenance mine must attribute at least one
# death per invariant family — candidate, killing workload, record —
# while writing both telemetry artifacts in one run.
rm -f /tmp/scif_run.jsonl /tmp/scif_run.trace.json
dune exec bin/scifinder.exe -- mine -j 2 -w helloworld -w basicmath \
  --explain "" --limit 3 --metrics /tmp/scif_run.jsonl \
  --trace-out /tmp/scif_run.trace.json | tee /tmp/explain.out
for fam in oneof mod relation diff scale; do
  grep -q "^  $fam .*killed by .*(record " /tmp/explain.out
done
# The Chrome trace must validate structurally (strict parse, consistent
# pids, non-negative timestamps/durations) and be Perfetto-loadable:
# no mine.shard span may float as a root.
dune exec bench/check_json.exe -- /tmp/scif_run.trace.json /tmp/scif_run.jsonl
! grep -q '"name":"mine.shard".*"parent":null' /tmp/scif_run.trace.json
# The report command digests the same stream: span tree, candidate
# funnel, and zero skipped lines on our own telemetry.
dune exec bin/scifinder.exe -- report /tmp/scif_run.jsonl | tee /tmp/report.out
grep -q 'pipeline.mine' /tmp/report.out
grep -q 'candidate funnel' /tmp/report.out
grep -q 'skipped lines: 0' /tmp/report.out
# The SCI-deploying commands optimise and identify through the pipeline,
# so their telemetry carries both phase spans.
rm -f /tmp/scif_identify.jsonl
dune exec bin/scifinder.exe -- identify -b b10 \
  --metrics /tmp/scif_identify.jsonl > /dev/null
dune exec bin/scifinder.exe -- report /tmp/scif_identify.jsonl \
  | tee /tmp/identify_report.out
grep -q 'pipeline.optimize' /tmp/identify_report.out
grep -q 'pipeline.identify' /tmp/identify_report.out
# Telemetry overhead budget: obsbench prints (and BENCH_pipeline.json
# records) the estimated null-sink overhead; the gate is < 2%.
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
rm -rf /tmp/scif_lake && mkdir -p /tmp/scif_lake
dune exec bin/scifinder.exe -- trace pi --limit 0 --record-out /tmp/scif_lake/pi.seg | tee /tmp/lakecli.out
grep -q 'recorded 477 records to /tmp/scif_lake/pi.seg' /tmp/lakecli.out
dune exec bin/scifinder.exe -- mine --from-lake /tmp/scif_lake -j 4 --limit 1 | tee /tmp/lakemine.out
grep -q 'lake: 477 records from 1 segments' /tmp/lakemine.out
rm -rf /tmp/scif_lake
# Servebench gate: hundreds of concurrent synthetic clients against the
# in-process mining service must sustain >= 0.8x the direct batch mining
# throughput on the same worker count, record a p99 job latency, answer
# window overflow with explicit busy, and stay byte-identical
# (SCIFSNAP engine digest) to a direct sequential session.
dune exec bench/main.exe -- servebench
# Serve CLI smoke: a real daemon on a Unix socket, driven by the client
# subcommands, then SIGTERM — the graceful path must drain, exit 0, and
# flush a parseable telemetry stream (the signal-flush guarantee).
rm -f /tmp/scif_serve.sock /tmp/scif_serve.jsonl
dune exec bin/scifinder.exe -- serve --socket /tmp/scif_serve.sock \
  --metrics /tmp/scif_serve.jsonl -j 2 &
SERVE_PID=$!
i=0
while [ ! -S /tmp/scif_serve.sock ]; do
  i=$((i + 1)); [ $i -le 100 ] || { echo "serve socket never appeared"; exit 1; }
  sleep 0.1
done
dune exec bin/scifinder.exe -- client mine --socket /tmp/scif_serve.sock -w pi | tee /tmp/servecli.out
grep -q 'mined 477 records (session total 477)' /tmp/servecli.out
dune exec bin/scifinder.exe -- client mine --socket /tmp/scif_serve.sock -w helloworld | tee /tmp/servecli2.out
grep -q 'mined 329 records (session total 806)' /tmp/servecli2.out
dune exec bin/scifinder.exe -- client status --socket /tmp/scif_serve.sock | tee /tmp/servestatus.out
grep -q 'p99 job' /tmp/servestatus.out
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
test -s /tmp/scif_serve.jsonl
dune exec bench/check_json.exe -- /tmp/scif_serve.jsonl
rm -f /tmp/scif_serve.sock /tmp/scif_serve.jsonl
