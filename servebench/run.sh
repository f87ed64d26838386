#!/usr/bin/env bash
# Build the compile server and the benchmark from source, then run one
# benchmark measurement:
#
#   bash servebench/run.sh --workload repeat --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/qopt.ml ] || [ ! -d lib ]; then
  echo "servebench: run from the root of a qopt checkout (dune-project, bin/, lib/)" >&2
  exit 2
fi

# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./bin/qopt.exe ./servebench/main.exe 1>&2
exec ./_build/default/servebench/main.exe "$@"
