#!/usr/bin/env bash
# Size trend: non-test, non-comment Rust lines (everything above a
# file's first `#[cfg(test)]` / `#![cfg(test)]` line) for the comm layer
# and the drivers file by file, then for every crate under crates/ and
# the root package's src/, each crate with the occurrences of `unsafe`
# in its code, tests included (`[workspace.lints]` forbids it everywhere
# but lkk-kokkos and the rayon shim, so those are the two non-zero rows).
# Informational, not a gate; the numbers are quoted in ROADMAP.md when
# an item changes them.
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

unsafe_in() { # the word `unsafe` outside comments, in the files named
  cat "$@" | grep -vE '^\s*//' | grep -ow 'unsafe' | wc -l
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
  files=$(find "$dir" -name '*.rs' | sort)
  n=$(count $files)
  printf '%6d  %-22s %3d unsafe\n' "$n" "${dir%/src}" "$(unsafe_in $files)"
  total=$((total + n))
done
printf '%6d  all crates\n' "$total"
