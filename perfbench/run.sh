#!/bin/sh
# Build the benchmark program and mbu-cli from source, then run the benchmark.
# Run from the root of an mbu checkout:
#
#   sh perfbench/run.sh --workload montecarlo --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the benchmark's last line of stdout is its
# JSON result. See perfbench/README.md.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an mbu checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe ./bin/mbu_cli.exe 1>&2

# Not exec: main.exe reads the peak memory of the processes it waits for
# (getrusage RUSAGE_CHILDREN), which exec would carry over from dune.
./_build/default/perfbench/main.exe --cli ./_build/default/bin/mbu_cli.exe "$@"
