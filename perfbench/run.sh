#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run one workload:
#
#   bash perfbench/run.sh --workload fabric-k16|churn-k8|serve-open --seed N \
#       --seconds S --trace 0|1
#
# Build output goes to stderr; the last line on stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/hirebench.exe >&2
exec ./_build/default/perfbench/hirebench.exe "$@"
