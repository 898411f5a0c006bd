#!/usr/bin/env bash
# Run the same gate CI runs, locally. Any failure stops the script.
#
#   scripts/ci.sh
#
# Steps mirror the jobs in .github/workflows/ci.yml (build, test, lint,
# perf, benchmark, chaos) run back-to-back; if you change
# one, change the other. The sanitizer lanes of
# .github/workflows/sanitizers.yml run at the end when a nightly
# toolchain is installed; Miri gates (as it does in CI), TSan stays
# advisory.
set -euo pipefail
cd "$(dirname "$0")/.."

# --- build job ---------------------------------------------------------

echo "==> cargo build --release (deny warnings)"
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release

# --workspace: the Criterion benches live in crates/bench, not in the
# root package.
echo "==> cargo bench --no-run --workspace"
cargo bench --no-run --workspace

# Informational, not a gate: non-test code lines of the comm layer and
# the drivers file by file, then of every crate.
echo "==> scripts/loc.sh (size trend)"
scripts/loc.sh

# --- test job ----------------------------------------------------------

# Includes the allocation gate, tests/alloc_gate.rs: every pair style on
# every space, past the fork threshold, allocates nothing inside a
# dispatch after one warm-up step. It runs here, in the dev profile,
# because the dispatch depth it reads exists only where debug assertions
# are on (a release build compiles it to an empty binary).
echo "==> cargo test -q --workspace (incl. the allocation gate)"
cargo test -q --workspace

# Already covered by the workspace run above; repeated in release as an
# explicit, named gate on the ISSUE-3 acceptance bar (2/4/8-rank
# trajectories ≤1e-12, comm-model validation).
echo "==> rank-equivalence + comm-validation suites (release)"
cargo test --release -q --test rank_equivalence --test comm_validation

# The one row walker under the optimiser the benchmark runs with: every
# style (tests/common's table) reads strided (device) rows as it reads
# contiguous ones, and a recycled, re-strided list as a fresh one; and
# every style, tiled past the fork threshold, computes Serial's forces
# on forked Threads and device launches.
echo "==> every-style row readers and forked kernels: device consistency + neighbor recycle (release)"
cargo test --release -q --test device_consistency --test neighbor_recycle

# lkk-kokkos' disjoint parts in the build the benchmark runs: every item
# sees exactly its part on both sides of the fork threshold, bad CSR
# offsets are rejected before dispatch, and a write one past a part's
# end panics (no debug assertion involved).
echo "==> disjoint-parts dispatch (release)"
cargo test --release -q -p lkk-kokkos parts

# SNAP's physics gate at the benchmark's order (2J = 8, rcut 4.7:
# F = -dE/dx, net force, virial, rotation invariance, NVE drift), the
# inversion symmetry of the full-range reference, which is what
# licenses storing half of every Wigner block, and the oracles of
# Deidrj's reverse sweep (forward-mode du of that reference, central
# differences, linearity in the seed).
echo "==> SNAP physics gate + reference symmetry + adjoint oracles (release)"
cargo test --release -q --test snap_physics
cargo test --release -q -p lkk-snap --lib inversion_symmetry
cargo test --release -q -p lkk-snap --lib adjoint

# The gate on lkk_kokkos::isa's neighbor fill: every `fill_matches_reference_*`
# oracle and the pruning property run the neighbor fill once per
# instantiation this host has (the baseline, and AVX2 where the CPU reports
# it; the first test prints which), in all three spaces, and require rows,
# counts and `needed` equal to the plain 27-bin walk's. No switch selects an
# instantiation from outside, so the loop over them lives in the tests.
echo "==> neighbor oracles, once per ISA instantiation (release)"
cargo test --release -q -p lkk-core --lib neighbor -- --nocapture 2>&1 |
  grep -E "instantiations under test|test result|FAILED|panicked"

# The seam's second kernel, SNAP's ComputeYi block: every partial block,
# eflag on and off, each instantiation's `Y` and per-lane energies equal
# the baseline copy's to the bit (the test prints which it ran).
echo "==> SNAP Yi block oracle, once per ISA instantiation (release)"
cargo test --release -q -p lkk-snap --lib yi_block_instantiations -- --nocapture 2>&1 |
  grep -E "instantiations under test|test result|FAILED|panicked"

# ReaxFF's physics gate on the warm-started path (F = -dE/dx with the
# charges re-equilibrated at every displaced point, net force, charge
# neutrality and stationarity, 2 000-step NVE against a run that solves
# cold on every step): what licenses a solve that starts somewhere else
# than zero, and pair terms whose last bits moved.
echo "==> ReaxFF physics gate (release)"
cargo test --release -q --test reaxff_physics

# --- lint job ----------------------------------------------------------

echo "==> cargo fmt --check"
cargo fmt --check

# clippy.toml bans the wall clock, OS entropy, hash containers and CPU
# feature detection; a site where that does not apply carries
# #[expect(clippy::…, reason = "…")], and the -W flag fails any lint
# waiver without a reason.
echo "==> cargo clippy --workspace --all-targets -- -D warnings -W clippy::allow_attributes_without_reason"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::allow_attributes_without_reason

# `cfg(target_feature = …)` is the one instruction-set selection neither
# rustc nor clippy sees: outside the ISA seam it must not appear at all.
echo "==> no cfg(target_feature) outside crates/kokkos/src/isa.rs"
if git grep -nE 'target_feature\s*=' -- '*.rs' ':!crates/kokkos/src/isa.rs'; then
  echo "cfg(target_feature) outside the ISA seam" >&2
  exit 1
fi

# --- perf job ----------------------------------------------------------

# One capture, one document: counters, metrics and critical path are
# gated byte for byte against the committed baseline (refresh
# deliberately with --write-baseline); the same capture's Perfetto
# timeline lands in results/trace_smoke.json.
echo "==> perf-smoke --check results/baseline.json --trace"
cargo run --release -p lkk-perf --bin perf-smoke -- \
  --check results/baseline.json --trace results/trace_smoke.json

# The model-clock tables and figures in results/ are pure functions of
# event counts: a committed file that differs from its regeneration is
# stale.
echo "==> scripts/results.sh --check (model-clock results are current)"
scripts/results.sh --check

# --- benchmark job -----------------------------------------------------

# lkk-benchmark (benchmark/, its own workspace) builds against the public
# API it pins in benchmark/src/api.rs; the self-test runs every workload
# at one rep and a tenth of the steps and checks every BENCHMARK.json
# metric is printed once with a finite value. Offline, well under a
# minute; judges no timing. A refactor that breaks the seam fails here
# rather than in the benchmark gate.
echo "==> benchmark/run.sh --selftest (benchmark API seam)"
bash benchmark/run.sh --selftest | tail -n 1

# --- chaos job ---------------------------------------------------------

# 16 fixed seeds of recoverable chaos at P in {2, 4, 8} (the #[ignore]d
# matrix): every faulted trajectory must match the fault-free run bitwise
# and the message pool must stay steady (see docs/robustness.md); plus the
# watchdogged unrecoverable-fault collapse test.
echo "==> fault-injection suite (release, full 16-seed matrix)"
cargo test --release -q --test fault_injection -- --include-ignored

# Load balancing must be physics-invisible: balanced vs static runs
# bitwise identical at 2/4/8 ranks (LJ and SNAP), the skewed-lattice
# peak-imbalance gate (static >= 2.0 -> balanced <= 1.15; lkk-perf's
# capture test holds skewed8 to the same bound), and chaos composed
# with rebalancing (see tests/balance_equivalence.rs).
echo "==> balance-equivalence suite (release, bitwise + imbalance gate)"
cargo test --release -q --test balance_equivalence

# --- sanitizer lanes (need a nightly toolchain) ------------------------

# Miri GATES when available (mirrors the gating miri job in
# sanitizers.yml); TSan stays advisory — see the workflow comments.
if rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
  if cargo +nightly miri --version >/dev/null 2>&1; then
    # -Zmiri-ignore-leaks: the shim's pool workers are detached and
    # still polling or parked when a test process exits.
    miriflags="-Zmiri-seed=7 -Zmiri-strict-provenance -Zmiri-ignore-leaks"
    echo "==> miri: rayon shim worker pool (gating)"
    MIRIFLAGS="$miriflags" cargo +nightly miri test -p rayon
    echo "==> miri: lkk-kokkos atomic, scatter-view and disjoint-parts unit tests (gating)"
    MIRIFLAGS="$miriflags" cargo +nightly miri test -p lkk-kokkos -- atomic scatter parts
  else
    echo "==> miri not installed for nightly; skipping (rustup component add miri --toolchain nightly)"
  fi
  if rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)'; then
    echo "==> tsan: rayon shim worker pool, rank-equivalence suite (advisory)"
    tsan() {
      RUSTFLAGS="-Zsanitizer=thread" TSAN_OPTIONS="history_size=7" \
        cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu "$@" ||
        echo "==> tsan lane FAILED (advisory — tracked by the sanitizers badge)"
    }
    tsan -p rayon
    tsan --test rank_equivalence
  else
    echo "==> rust-src not installed for nightly; skipping TSan (rustup component add rust-src --toolchain nightly)"
  fi
else
  echo "==> no nightly toolchain; skipping sanitizer lanes (see .github/workflows/sanitizers.yml)"
fi

echo "==> all green"
