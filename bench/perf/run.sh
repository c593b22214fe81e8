#!/usr/bin/env bash
# Entry point named by BENCHMARK.json.  Run from the repository root:
#
#   bash bench/perf/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] ...
#
# Builds perf.exe and the tqecc daemon it drives from this checkout's
# sources (dune's shared cache off, so nothing is written outside the
# checkout), then runs one workload; every argument goes to `perf.exe run`.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the root of a repository checkout (no dune-project or lib/ here)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe ./bin/tqecc.exe >&2
exec ./_build/default/bench/perf/perf.exe run --tqecc ./_build/default/bin/tqecc.exe "$@"
