#!/usr/bin/env bash
# Build the benchmark and run it. With no argument: every workload, both
# the untraced and the traced runs, every metric printed by name.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --selftest     every workload at 1 rep and 1/10 steps
#   benchmark/run.sh --check        traced runs only (rebuild-rate assertion)
#
# Run from anywhere; works from the root of the checkout that holds it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

if [ -n "${LKK_SEQUENTIAL:-}" ]; then
    echo "run.sh: refusing to run with LKK_SEQUENTIAL set: it collapses the thread pool" >&2
    exit 2
fi

# Always the release profile (benchmark/Cargo.toml repeats the root's);
# the binary refuses to measure if it was built with debug assertions.
# Cargo resolves a relative CARGO_TARGET_DIR against this directory.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/lkk-benchmark"

# At most two workers: the thread pool sizes itself from the CPUs this
# process may use, so pin to two of them, on different cores if the
# kernel says which CPUs are hardware threads of one core.
expand() { # "0-2,8" -> 0 1 2 8
    local range
    IFS=',' read -ra ranges <<<"$1"
    for range in "${ranges[@]}"; do
        seq "${range%-*}" "${range#*-}"
    done
}
pin=()
if command -v taskset >/dev/null && [ "$(nproc)" -gt 2 ]; then
    allowed=($(expand "$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status)"))
    first="${allowed[0]}"
    second="${allowed[1]}"
    siblings="/sys/devices/system/cpu/cpu$first/topology/thread_siblings_list"
    if [ -r "$siblings" ]; then
        same_core=" $(expand "$(cat "$siblings")" | tr '\n' ' ') "
        for cpu in "${allowed[@]:1}"; do
            if [[ "$same_core" != *" $cpu "* ]]; then
                second="$cpu"
                break
            fi
        done
    fi
    pin=(taskset -c "$first,$second")
fi

export LKK_BENCH_DIR="$here"
exec "${pin[@]}" "$bin" "$@"
