#!/usr/bin/env bash
# Builds scibench from source and runs it with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload lake --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line on stdout is the run's JSON summary. The dune cache is off so the
# build writes nothing outside the checkout.
set -euo pipefail
dune build --root . --cache=disabled \
  ./bench/e2e/scibench.exe ./bench/check_json.exe 1>&2
exec ./_build/default/bench/e2e/scibench.exe "$@"
