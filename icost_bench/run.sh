#!/usr/bin/env bash
# Build the icost CLI and the benchmark from source, then run it:
#
#   bash icost_bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of an icostlib source tree.  Build output goes to
# stderr, so the last line of stdout stays the benchmark's JSON result.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin || ! -f icost_bench/dune ]]; then
  echo "icost_bench/run.sh: run from the root of an icostlib source tree" >&2
  exit 2
fi

# keep every build artifact inside the tree, and analysis on one domain
export DUNE_CACHE=disabled ICOST_JOBS=1
dune build --root . ./bin/main.exe ./icost_bench/icost_bench.exe 1>&2
exec ./_build/default/icost_bench/icost_bench.exe \
  --icost ./_build/default/bin/main.exe "$@"
