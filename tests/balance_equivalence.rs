//! Load balancing must never change the physics.
//!
//! A rebalanced run moves the brick cut planes and migrates atoms to
//! new owners, so every rank sees a different owned set and a
//! different ghost halo than the static run. With the determinism
//! knobs on (canonical neighbor-row order + full lists for LJ,
//! quantized force scatter for SNAP), per-atom trajectories are a
//! pure function of the global atom state — ownership is invisible —
//! so the balanced and static runs must agree *bitwise* on every
//! position, velocity, and force. Reduced energies are summed in a
//! different grouping across decompositions and match only to
//! accumulation-order noise.
//!
//! The lattice is deliberately skewed (a dense slab plus a sparse
//! tail along x) so the static decomposition is badly imbalanced and
//! the balancer has real work to do.

mod common;

use common::diff_runs;
use lkk_core::prelude::*;
use lkk_snap::{PairSnap, SnapKernelConfig, SnapParams};

/// Energy tolerance for reductions whose grouping differs across
/// decompositions (same band as `tests/rank_equivalence.rs`).
const E_TOL: f64 = 1e-12;

/// Elongated fcc LJ box (32x4x4 cells at rho* = 0.8442): the first
/// quarter along x keeps every atom, the rest keeps one in four.
/// 896 atoms, static imbalance ~2.3 at eight ranks.
fn skewed_lj() -> (AtomData, Domain) {
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let (nx, ny, nz) = (32, 4, 4);
    let domain = lat.domain(nx, ny, nz);
    let lx = domain.hi[0] - domain.lo[0];
    let kept: Vec<[f64; 3]> = lat
        .positions(nx, ny, nz)
        .into_iter()
        .enumerate()
        .filter(|(i, p)| p[0] - domain.lo[0] < 0.25 * lx || i % 4 == 0)
        .map(|(_, p)| p)
        .collect();
    let mut atoms = AtomData::from_positions(&kept);
    create_velocities(&mut atoms, &Units::lj(), 1.44, 87287);
    (atoms, domain)
}

/// LJ with a full neighbor list (newton off): every rank accumulates
/// its owned forces entirely from its own rows, so no cross-rank sum
/// exists whose order could depend on the decomposition. Canonical
/// row order makes the per-row accumulation decomposition-invariant.
fn lj_full(_rank: usize, system: System) -> Simulation {
    let pair = PairKokkos::with_options(
        LjCut::single_type(1.0, 1.0, 2.5),
        &Space::Serial,
        PairKokkosOptions {
            force_half: Some(false),
            ..Default::default()
        },
    );
    let mut sim = Simulation::new(system, Box::new(pair));
    sim.settings.sort_rows = true;
    sim
}

/// Elongated bcc tungsten box (10x3x3 cells): the first third along x
/// keeps every atom, the rest keeps one in two. 120 atoms.
fn skewed_snap() -> (AtomData, Domain) {
    let lat = Lattice::new(LatticeKind::Bcc, 3.16);
    let (nx, ny, nz) = (10, 3, 3);
    let domain = lat.domain(nx, ny, nz);
    let lx = domain.hi[0] - domain.lo[0];
    let kept: Vec<[f64; 3]> = lat
        .positions(nx, ny, nz)
        .into_iter()
        .enumerate()
        .filter(|(i, p)| p[0] - domain.lo[0] < lx / 3.0 || i % 2 == 0)
        .map(|(_, p)| p)
        .collect();
    let mut atoms = AtomData::from_positions(&kept);
    atoms.mass = vec![183.84];
    create_velocities(&mut atoms, &Units::metal(), 300.0, 4242);
    (atoms, domain)
}

/// SNAP scatters per-pair forces onto ghosts and completes them by
/// reverse communication; quantizing every contribution to a multiple
/// of 2^-32 makes those f64 sums exact, hence order- and
/// decomposition-invariant.
fn snap_quantized(_rank: usize, system: System) -> Simulation {
    let params = SnapParams {
        twojmax: 4,
        rcut: 3.5,
        ..Default::default()
    };
    let pair = PairSnap::new(params, &Space::Serial).with_config(SnapKernelConfig {
        quantize_scatter: true,
        ..Default::default()
    });
    let mut sim = Simulation::new(system, Box::new(pair));
    sim.settings.sort_rows = true;
    sim.dt = 0.0005;
    sim
}

/// Bitwise comparison of final per-atom state (tag order), energies
/// at accumulation-order tolerance.
fn assert_same_trajectory(a: &MultiRankRun, b: &MultiRankRun, what: &str) {
    assert_eq!(a.states.len(), b.states.len(), "{what}: atom count");
    for (sa, sb) in a.states.iter().zip(&b.states) {
        assert_eq!(sa.tag, sb.tag, "{what}: tag order");
        for (field, ra, rb) in [("x", sa.x, sb.x), ("v", sa.v, sb.v), ("f", sa.f, sb.f)] {
            assert_eq!(
                ra.map(f64::to_bits),
                rb.map(f64::to_bits),
                "{what}: tag {} {field} diverged: {ra:?} vs {rb:?}",
                sa.tag
            );
        }
    }
    for (name, ea, eb) in [
        ("e_pair", a.e_pair, b.e_pair),
        ("e_kinetic", a.e_kinetic, b.e_kinetic),
    ] {
        assert!(
            (ea - eb).abs() <= E_TOL * eb.abs().max(1.0),
            "{what}: {name} diverged: {ea} vs {eb}"
        );
    }
}

fn run_pair(
    spec: &RunSpec,
    nranks: usize,
    factory: fn(usize, System) -> Simulation,
) -> (MultiRankRun, MultiRankRun) {
    let run_with = |balance: Option<BalancePolicy>| {
        spec.clone()
            .comm(CommSpec::Brick {
                ranks: nranks,
                balance,
            })
            .run(factory)
            .expect("run failed")
    };
    let static_run = run_with(None);
    let balanced = run_with(Some(BalancePolicy::default()));

    // The balancer actually engaged on the balanced run and stayed
    // silent on the static one (static baselines keep their bytes).
    assert!(
        balanced.comm_stats.rebalances > 0,
        "P={nranks}: balancer never moved the cuts"
    );
    assert!(balanced.comm_stats.balance_msgs > 0);
    assert_eq!(static_run.comm_stats.rebalances, 0);
    assert_eq!(static_run.comm_stats.balance_msgs, 0);
    // Migration storms from rebalancing must not defeat the
    // steady-state allocation invariant.
    assert_eq!(
        balanced.comm_grow_after_warmup, 0,
        "P={nranks}: pools grew after warmup under rebalancing"
    );
    (static_run, balanced)
}

#[test]
fn lj_balanced_matches_static_bitwise_at_2_4_8_ranks() {
    let (atoms, domain) = skewed_lj();
    let mut spec = RunSpec::new(&atoms, domain, 12);
    spec.warmup_steps = 6;
    for nranks in [2usize, 4, 8] {
        let (static_run, balanced) = run_pair(&spec, nranks, lj_full);
        assert_same_trajectory(&static_run, &balanced, &format!("LJ P={nranks}"));
    }
}

#[test]
fn snap_balanced_matches_static_bitwise_at_2_4_8_ranks() {
    let (atoms, domain) = skewed_snap();
    let mut spec = RunSpec::new(&atoms, domain, 6);
    spec.units = Units::metal();
    spec.warmup_steps = 2;
    for nranks in [2usize, 4, 8] {
        let (static_run, balanced) = run_pair(&spec, nranks, snap_quantized);
        assert_same_trajectory(&static_run, &balanced, &format!("SNAP P={nranks}"));
    }
}

#[test]
fn skewed_lattice_rebalancing_cuts_peak_imbalance_at_8_ranks() {
    let (atoms, domain) = skewed_lj();
    let mut spec = RunSpec::new(&atoms, domain, 12);
    spec.warmup_steps = 6;
    let (static_run, balanced) = run_pair(&spec, 8, lj_full);
    let before = static_run.atom_imbalance();
    let after = balanced.atom_imbalance();
    assert!(
        before >= 2.0,
        "skewed lattice not skewed enough: static imbalance {before:.3}"
    );
    assert!(
        after <= 1.15,
        "rebalancing left peak imbalance {after:.3} (static was {before:.3})"
    );
}

#[test]
fn fault_injection_composes_with_rebalancing() {
    // Recoverable faults hit the balance envelopes like any other
    // traffic (CRC + NACK + retransmit), so a faulted balanced run
    // must reproduce the fault-free balanced run bit for bit — the
    // same gate `tests/fault_injection.rs` holds over static runs.
    let (atoms, domain) = skewed_lj();
    let mut spec = RunSpec::new(&atoms, domain, 10).comm(CommSpec::Brick {
        ranks: 4,
        balance: Some(BalancePolicy::default()),
    });
    spec.warmup_steps = 4;
    let reference = spec.clone().run(lj_full).expect("fault-free run failed");
    assert!(reference.comm_stats.rebalances > 0);

    let mut faulted_spec = spec.clone();
    faulted_spec.fault = Some(FaultConfig::recoverable(11));
    let faulted = faulted_spec.run(lj_full).expect("faulted run failed");
    assert!(faulted.fault_stats.injected() > 0, "no faults fired");
    assert!(faulted.comm_stats.rebalances > 0);

    let violations = diff_runs(&reference, &faulted);
    assert!(
        violations.is_empty(),
        "faulted balanced run diverged:\n{}",
        violations.join("\n")
    );
}
