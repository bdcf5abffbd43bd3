#!/bin/sh
# Builds the lifting benchmark from source, then runs it with the given
# arguments, e.g.
#   sh liftbench/run.sh --workload search-td --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./liftbench/liftbench.exe 1>&2
exec ./_build/default/liftbench/liftbench.exe "$@"
