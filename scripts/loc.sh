#!/usr/bin/env bash
# Size trend: non-test, non-comment Rust lines (everything above a
# file's first `#[cfg(test)]` / `#![cfg(test)]` line) for the comm layer
# and the drivers file by file, then for every crate under crates/ and
# the root package's src/. Informational, not a gate; the numbers are
# quoted in ROADMAP.md when an item changes them.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # non-test code lines of the files named
  local f n sum=0
  for f in "$@"; do
    [ -f "$f" ] || continue
    n=$(sed -E '/^#!?\[cfg\(test\)\]/,$d' "$f" | grep -cvE '^\s*(//|$)' || true)
    sum=$((sum + n))
  done
  echo "$sum"
}

total=0
for f in crates/core/src/comm.rs crates/core/src/comm/*.rs \
         crates/core/src/sim.rs crates/core/src/driver.rs; do
  [ -f "$f" ] || continue
  n=$(count "$f")
  printf '%6d  %s\n' "$n" "$f"
  total=$((total + n))
done
printf '%6d  total\n\n' "$total"

total=0
for dir in crates/*/src crates/shims/*/src src; do
  [ -d "$dir" ] || continue
  n=$(count $(find "$dir" -name '*.rs' | sort))
  printf '%6d  %s\n' "$n" "${dir%/src}"
  total=$((total + n))
done
printf '%6d  all crates\n' "$total"
