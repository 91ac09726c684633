#!/usr/bin/env bash
# Build the benchmark and the daemon from source in this checkout, then
# run one benchmark invocation:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/cinm_serve.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
