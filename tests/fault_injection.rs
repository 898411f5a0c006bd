//! Chaos tests for the fault-injection + retry/timeout layer under the
//! brick comm path (see `docs/robustness.md`).
//!
//! The determinism contract: for any *recoverable* seed, a rank-parallel
//! run under injected delays, drops, duplicates, reorders, and payload
//! corruptions must produce a final state **bitwise identical** to the
//! fault-free run at the same rank count — and must not grow the
//! message pool after warmup (all retransmit scratch is pooled). For an
//! *unrecoverable* schedule (a permanently dead edge), every rank must
//! return a structured [`CommError`] within the retry budget instead of
//! deadlocking — asserted here under a watchdog.
//!
//! The default tests sweep a handful of seeds at P ∈ {2, 4, 8}; the CI
//! chaos job additionally runs the `#[ignore]`d 16-seed sweep in
//! release (`cargo test --release --test fault_injection -- --include-ignored`).

mod common;

use common::diff_runs;
use lkk_core::prelude::*;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The fixed seeds the CI chaos matrix sweeps (see `scripts/ci.sh`).
const CI_SEEDS: [u64; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

fn lj_atoms(temp: f64) -> (AtomData, Domain) {
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let mut atoms = AtomData::from_positions(&lat.positions(4, 4, 4));
    create_velocities(&mut atoms, &Units::lj(), temp, 87287);
    (atoms, lat.domain(4, 4, 4))
}

fn lj_pair() -> PairKokkos<LjCut> {
    PairKokkos::with_options(
        LjCut::single_type(1.0, 1.0, 2.5),
        &Space::Serial,
        PairKokkosOptions {
            force_half: Some(true),
            ..Default::default()
        },
    )
}

fn lj_spec(steps: u64) -> RunSpec {
    let (atoms, domain) = lj_atoms(1.44);
    let mut spec = RunSpec::new(&atoms, domain, steps);
    // The pool-growth gate needs a warmup window that sizes the message
    // pools (including the fault-mode provisioning pass).
    spec.warmup_steps = 4;
    spec
}

fn lj_factory(_rank: usize, system: System) -> Simulation {
    Simulation::new(system, Box::new(lj_pair()))
}

/// Run `spec` fault-free at `nranks`, then once per seed with a
/// recoverable fault schedule, asserting every faulted trajectory is
/// bitwise identical and every seed actually injected faults.
fn assert_seeds_bitwise_identical(spec: &RunSpec, nranks: usize, seeds: &[u64]) {
    let spec = spec.clone().comm(CommSpec::Brick {
        ranks: nranks,
        balance: None,
    });
    let reference = spec.run(lj_factory).expect("fault-free reference failed");
    for &seed in seeds {
        let mut faulted_spec = spec.clone();
        faulted_spec.fault = Some(FaultConfig::recoverable(seed));
        let faulted = faulted_spec
            .run(lj_factory)
            .unwrap_or_else(|f| panic!("P={nranks} seed {seed}: recoverable run aborted: {f}"));
        let violations = diff_runs(&reference, &faulted);
        assert!(
            violations.is_empty(),
            "P={nranks} seed {seed}: {violations:?}"
        );
        assert!(
            faulted.fault_stats.injected() > 0,
            "P={nranks} seed {seed}: no faults injected (test has no teeth)"
        );
        assert_eq!(
            faulted.fault_stats.timeouts, 0,
            "P={nranks} seed {seed}: a recoverable seed must never exhaust retries"
        );
    }
}

#[test]
fn recoverable_seeds_reproduce_lj_bitwise_at_2_4_8_ranks() {
    let spec = lj_spec(12);
    for nranks in [2usize, 4, 8] {
        assert_seeds_bitwise_identical(&spec, nranks, &CI_SEEDS[..3]);
    }
}

/// The full CI chaos matrix: every fixed seed at every rank count. Run
/// in release by the chaos job; too slow for the default debug suite.
#[test]
#[ignore = "chaos CI matrix: run with --include-ignored (release)"]
fn ci_seed_matrix_reproduces_lj_bitwise_at_2_4_8_ranks() {
    let spec = lj_spec(12);
    for nranks in [2usize, 4, 8] {
        assert_seeds_bitwise_identical(&spec, nranks, &CI_SEEDS);
    }
}

#[test]
fn recoverable_seeds_reproduce_eam_bitwise() {
    // EAM exercises the forward-scalar exchange (per-atom F'(rho)) on
    // top of the LJ paths — the envelope flow the deferred-error slot
    // in `System::forward_ghost_scalar` protects.
    let steps = 8;
    let params = EamParams::default();
    let lat = Lattice::new(LatticeKind::Fcc, params.r0 * std::f64::consts::SQRT_2);
    let mut atoms = AtomData::from_positions(&lat.positions(3, 3, 3));
    let units = Units::metal();
    create_velocities(&mut atoms, &units, 600.0, 12345);
    let domain = lat.domain(3, 3, 3);
    let mut spec = RunSpec::new(&atoms, domain, steps);
    spec.units = units;
    spec.warmup_steps = 2;

    let factory = |_rank: usize, system: System| {
        Simulation::new(system, Box::new(PairEam::new(EamParams::default())))
    };
    let spec = spec.comm(CommSpec::Brick {
        ranks: 4,
        balance: None,
    });
    let reference = spec.run(factory).expect("fault-free reference failed");
    assert!(
        reference.comm_stats.scalar_msgs > 0,
        "EAM reference exchanged no F' scalars"
    );
    for seed in [5u64, 11] {
        let mut faulted_spec = spec.clone();
        faulted_spec.fault = Some(FaultConfig::recoverable(seed));
        let faulted = faulted_spec
            .run(factory)
            .unwrap_or_else(|f| panic!("EAM seed {seed}: recoverable run aborted: {f}"));
        let violations = diff_runs(&reference, &faulted);
        assert!(violations.is_empty(), "EAM seed {seed}: {violations:?}");
        assert!(faulted.fault_stats.injected() > 0);
    }
}

#[test]
fn message_pool_stays_steady_under_faults() {
    // The steady-state invariant of `tests/rank_equivalence.rs` extends
    // to fault recovery: every retransmit copy, duplicate, reorder
    // pre-send, and parked envelope is pooled scratch, so after warmup
    // (which provisions for the worst-case extras) nothing grows.
    let mut spec = lj_spec(40);
    spec.warmup_steps = 20;
    spec.fault = Some(FaultConfig::recoverable(0xFA57));
    let run = spec
        .comm(CommSpec::Brick {
            ranks: 4,
            balance: None,
        })
        .run(lj_factory)
        .expect("recoverable run aborted");
    assert!(run.comm_grow > 0, "pools never sized themselves");
    assert_eq!(
        run.comm_grow_after_warmup, 0,
        "fault recovery grew the message pool after warmup"
    );
    assert!(run.fault_stats.injected() > 0, "no faults injected");
    assert!(
        run.fault_stats.recovered() > 0,
        "faults injected but no recovery actions recorded"
    );
}

#[test]
fn fault_stats_expose_every_counter() {
    let mut spec = lj_spec(20);
    spec.fault = Some(FaultConfig::recoverable(2));
    let run = spec
        .comm(CommSpec::Brick {
            ranks: 4,
            balance: None,
        })
        .run(lj_factory)
        .expect("recoverable run aborted");
    let stats = run.fault_stats;
    let entries = stats.entries();
    for name in [
        "delays",
        "drops",
        "duplicates",
        "reorders",
        "corruptions",
        "nacks_sent",
        "retransmits",
        "stale_discards",
        "crc_failures",
        "timeouts",
    ] {
        assert!(
            entries.iter().any(|(n, _)| *n == name),
            "fault counter {name} missing from entries(): {entries:?}"
        );
    }
    // ~3% fault rate over 20 steps of 4-rank exchanges hits every
    // injected kind; recovery must at least have discarded stales
    // (duplicates/reorders) and retransmitted (drops/corruptions).
    assert!(stats.injected() > 0);
    assert!(stats.stale_discards > 0, "no stale discards: {stats:?}");
    assert!(stats.retransmits > 0, "no retransmits: {stats:?}");
    assert_eq!(stats.timeouts, 0, "recoverable run timed out somewhere");
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test watchdog bounds real elapsed time so a deadlocked recovery path fails the test instead of hanging CI"
)]
fn unrecoverable_dead_edge_fails_within_budget_on_all_ranks() {
    // Edge 0→1 goes permanently dead from the first envelope: the
    // receiver's NACKs are answered by nothing (dead-edge drops park no
    // retransmit copy), so rank 1 must exhaust its retries and return a
    // structured timeout — and every other rank must unwind (its own
    // timeout or a disconnect as the failed ranks drop their channels)
    // instead of deadlocking. The watchdog asserts the whole collapse
    // lands well inside a CI-friendly bound.
    let mut spec = lj_spec(12);
    let config = FaultConfig::unrecoverable(7, 0, 1, 0);
    let per_wait_budget_ms = config.policy.budget_ms();
    spec.fault = Some(config);

    let (tx, rx) = mpsc::channel();
    let started = Instant::now();
    let spec = spec.comm(CommSpec::Brick {
        ranks: 4,
        balance: None,
    });
    std::thread::spawn(move || {
        let _ = tx.send(spec.run(lj_factory));
    });
    let result = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("watchdog fired: unrecoverable run deadlocked");
    let elapsed = started.elapsed();

    let failure = match result {
        Ok(_) => panic!("run with a dead edge completed"),
        Err(failure) => failure,
    };
    assert_eq!(failure.nranks, 4);
    assert!(!failure.errors.is_empty(), "no per-rank errors collected");
    // The dead edge's receiver always unwinds — with its own timeout,
    // or with a disconnect if a neighbor (stalled on *its* receives
    // from the stuck rank) exhausted retries first and dropped its
    // channels. Which rank wins that race is timing, but the collapse
    // always *starts* with someone's retry exhaustion.
    assert!(
        failure.errors.iter().any(|(rank, _)| *rank == 1),
        "rank 1 (the dead edge's receiver) reported no error: {failure}"
    );
    let (_, timeout) = failure
        .errors
        .iter()
        .find(|(_, err)| matches!(err, CommError::Timeout { .. }))
        .expect("no rank reported a retry-exhaustion timeout");
    if let CommError::Timeout {
        retries, waited_ms, ..
    } = timeout
    {
        assert!(*retries > 0);
        // One receive's wait stays inside the policy budget (with
        // generous slop for scheduler starvation under parallel test
        // threads).
        assert!(
            *waited_ms <= per_wait_budget_ms * 2 + 500,
            "single wait {waited_ms} ms blew the {per_wait_budget_ms} ms budget"
        );
    }
    for (rank, err) in &failure.errors {
        assert!(
            matches!(
                err,
                CommError::Timeout { .. } | CommError::PeerDisconnected { .. }
            ),
            "rank {rank}: unexpected error kind {err:?}"
        );
    }
    // The collapse is prompt: a handful of per-wait budgets, not a
    // pile-up anywhere near the watchdog.
    assert!(
        elapsed < Duration::from_secs(15),
        "collapse took {elapsed:?}"
    );
    let display = format!("{failure}");
    assert!(
        display.contains("of 4 ranks failed"),
        "CommFailure display lost the rank census: {display}"
    );
}

#[test]
fn fault_counters_reach_the_metrics_registry() {
    // The `comm.fault.*` instants noted by the brick layer sum into
    // per-rank counters in the `lkk-trace` metrics registry, where a
    // metrics dump or trace export of a faulted run carries them.
    use lkk_kokkos::profile;
    use std::sync::Arc;

    let collector = Arc::new(lkk_trace::TraceCollector::deterministic(
        lkk_gpusim::GpuArch::h100(),
    ));
    let id = profile::register_subscriber(collector.clone());
    let mut spec = lj_spec(12);
    spec.fault = Some(FaultConfig::recoverable(1));
    let run = spec
        .comm(CommSpec::Brick {
            ranks: 4,
            balance: None,
        })
        .run(lj_factory);
    profile::unregister_subscriber(id);
    let run = run.expect("recoverable run aborted");
    assert!(run.fault_stats.injected() > 0);

    let metrics = collector.metrics();
    let dump = metrics.to_value().to_pretty();
    assert!(
        dump.contains("comm.fault."),
        "no comm.fault.* counters in the metrics dump"
    );
    // At least one rank recorded recovery traffic under its own lane
    // root (seed 1 injects drops on several edges).
    let seen = (0..4).any(|r| {
        metrics
            .counter(&format!("rank{r}/comm.fault.nack"))
            .unwrap_or(0.0)
            > 0.0
    });
    assert!(seen, "no per-rank comm.fault.nack counter: {dump}");
}
