#!/usr/bin/env bash
# Size trend of the comm layer and the drivers: non-test, non-comment
# Rust lines per file and in total. Informational, not a gate; the
# numbers are quoted in ROADMAP.md when an item changes them.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for f in crates/core/src/comm.rs crates/core/src/comm/*.rs \
         crates/core/src/sim.rs crates/core/src/driver.rs; do
  [ -f "$f" ] || continue
  n=$(sed '/^#\[cfg(test)\]/,$d' "$f" | grep -cvE '^\s*(//|$)' || true)
  printf '%6d  %s\n' "$n" "$f"
  total=$((total + n))
done
printf '%6d  total\n' "$total"
