#!/usr/bin/env bash
# Regenerate the model-clock outputs archived in results/ — every bench
# target EXPERIMENTS.md lists except the wall-clock `kernels_cpu` — or,
# with --check, fail when a committed file differs from its
# regeneration. The outputs are pure functions of event counts and the
# gpusim/machine models, so they are byte-stable on any machine.
#
#   scripts/results.sh            # rewrite results/$b.txt
#   scripts/results.sh --check    # diff against results/$b.txt, exit 1 on drift
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
case "${1:-}" in
  "") ;;
  --check) check=1 ;;
  *) echo "usage: scripts/results.sh [--check]" >&2; exit 2 ;;
esac

benches="table1 fig2a fig2b table2 fig3 fig4 fig5 fig6 fig7 appb ablation_resident ablation_cutoff"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
stale=0
for b in $benches; do
  cargo bench -q -p lkk-bench --bench "$b" > "$tmp"
  if [ "$check" = 0 ]; then
    cp "$tmp" "results/$b.txt"
  elif ! diff -u "results/$b.txt" "$tmp"; then
    echo "results/$b.txt is stale: regenerate with scripts/results.sh" >&2
    stale=1
  fi
done
exit "$stale"
