#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
