#!/usr/bin/env bash
# Builds the benchmark driver from the repository's sources and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload deep-search --seed 1 --seconds 10 --trace 0
#
# The build goes to .bench_build/ at the repository root, with dune's
# shared cache off, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f dune-project || ! -d lib ]]; then
  echo "perfbench: the library sources are missing; run from a checkout of the repository" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet ./perfbench/main.exe >&2
exec .bench_build/default/perfbench/main.exe "$@"
