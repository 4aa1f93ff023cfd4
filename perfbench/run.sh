#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash perfbench/run.sh --workload fig6 --seed 1 --seconds 35 --trace 0
#   bash perfbench/run.sh --self-check
# The script changes to the repository root itself. Build output goes to
# stderr, so the last line of stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
