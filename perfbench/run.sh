#!/usr/bin/env bash
# Build the server and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of an OpenIVM checkout. Everything it writes stays
# inside the checkout: the build in _build_perfbench/ (the shared dune
# cache is off) and the benchmark's .perfbench_run/ and .perfbench_trace/
# directories. The benchmark's stanzas exist only under the `perfbench`
# profile, which a separate build directory keeps from rebuilding the
# everyday `dev` tree in _build/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an OpenIVM checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

DUNE_CACHE=disabled dune build --root . --profile perfbench \
  --build-dir _build_perfbench --display quiet \
  ./perfbench/perfbench.exe ./bin/openivm_cli.exe >&2

exec ./_build_perfbench/default/perfbench/perfbench.exe \
  --server ./_build_perfbench/default/bin/openivm_cli.exe "$@"
