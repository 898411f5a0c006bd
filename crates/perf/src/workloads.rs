//! The six smoke workloads: small, fixed-seed systems for each force
//! field family the paper benchmarks, run through the full
//! `Simulation::run` timestep loop on a simulated device, plus two
//! brick-decomposed LJ systems on rank threads.
//!
//! Sizes are deliberately tiny — the harness gates on *counters*, not
//! throughput, so a few hundred atoms exercise every kernel, the
//! neighbor rebuild path, and the transfer machinery in well under a
//! second per workload.

use lkk_core::prelude::*;
use lkk_gpusim::GpuArch;
use lkk_reaxff::{hns, PairReaxff, ReaxParams};
use lkk_snap::{PairSnap, SnapParams};

/// A workload ready to run: a wired simulation plus the step count the
/// smoke report uses.
pub struct Workload {
    pub name: &'static str,
    pub sim: Simulation,
    pub steps: u64,
}

fn device() -> Space {
    Space::device(GpuArch::h100())
}

/// LJ melt: fcc at ρ* = 0.8442, T* = 1.44, the paper's §4.1 workload.
pub fn lj() -> Workload {
    let space = device();
    let n = 4; // 4³ fcc cells = 256 atoms
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let mut atoms = AtomData::from_positions(&lat.positions(n, n, n));
    let units = Units::lj();
    create_velocities(&mut atoms, &units, 1.44, 87287);
    let system = System::new(atoms, lat.domain(n, n, n), space.clone());
    let pair = PairKokkos::new(LjCut::single_type(1.0, 1.0, 2.5), &space);
    Workload {
        name: "lj",
        sim: Simulation::new(system, Box::new(pair)),
        steps: 30,
    }
}

/// EAM metal: fcc Cu-like lattice with the analytic Johnson-style
/// potential (two-pass density/force kernels + F′ ghost exchange).
pub fn eam() -> Workload {
    let space = device();
    let n = 3; // 3³ fcc cells = 108 atoms; a = r0·√2 ≈ 3.61 Å
    let params = EamParams::default();
    let lat = Lattice::new(LatticeKind::Fcc, params.r0 * std::f64::consts::SQRT_2);
    let mut atoms = AtomData::from_positions(&lat.positions(n, n, n));
    let units = Units::metal();
    create_velocities(&mut atoms, &units, 600.0, 12345);
    let system = System::new(atoms, lat.domain(n, n, n), space).with_units(units);
    let pair = PairEam::new(params);
    Workload {
        name: "eam",
        sim: Simulation::new(system, Box::new(pair)),
        steps: 20,
    }
}

/// SNAP: bcc tungsten-like lattice at a reduced `twojmax` (the kernel
/// structure — Ui/Yi/FusedDeidrj — is identical; the band count is
/// smaller so the smoke run stays fast).
pub fn snap() -> Workload {
    let space = device();
    let n = 3; // 3³ bcc cells = 54 atoms
    let lat = Lattice::new(LatticeKind::Bcc, 3.16);
    let mut atoms = AtomData::from_positions(&lat.positions(n, n, n));
    let units = Units::metal();
    create_velocities(&mut atoms, &units, 300.0, 4711);
    let system = System::new(atoms, lat.domain(n, n, n), space.clone()).with_units(units);
    let params = SnapParams {
        twojmax: 4,
        rcut: 3.5,
        ..Default::default()
    };
    let pair = PairSnap::new(params, &space);
    Workload {
        name: "snap",
        sim: Simulation::new(system, Box::new(pair)),
        steps: 10,
    }
}

/// ReaxFF: the HNS-like molecular crystal with charge equilibration.
pub fn reaxff() -> Workload {
    let space = device();
    // 3³ × 18-atom cells = 486 atoms; 2³ would leave the 15 Å box
    // smaller than twice the ~8.3 Å ghost cutoff and fail comm setup.
    let cells = 3;
    let (pos, types, domain) = hns::crystal(cells, cells, cells, 7.5);
    let mut atoms = AtomData::from_positions(&pos);
    atoms.mass = vec![12.0, 1.0, 14.0, 16.0];
    for (i, &t) in types.iter().enumerate() {
        atoms.typ.h_view_mut().set([i], t);
    }
    let units = Units::metal();
    create_velocities(&mut atoms, &units, 300.0, 2718);
    let system = System::new(atoms, domain, space).with_units(units);
    let pair = PairReaxff::new(ReaxParams::hns_like());
    Workload {
        name: "reaxff",
        sim: Simulation::new(system, Box::new(pair)),
        steps: 5,
    }
}

/// All four single-rank workloads in report order.
pub fn all() -> Vec<Workload> {
    vec![lj(), eam(), snap(), reaxff()]
}

/// A rank-parallel workload: an initial state plus the per-rank
/// simulation factory. The spec carries its [`CommSpec::Brick`] layout,
/// so callers just invoke [`lkk_core::driver::RunSpec::run`].
pub struct RankWorkload {
    pub name: &'static str,
    pub spec: RunSpec,
    pub factory: fn(usize, System) -> Simulation,
}

fn ranks4_sim(_rank: usize, system: System) -> Simulation {
    // Half list + newton on: the cross-rank pair convention, completed
    // by reverse communication every step.
    let pair = PairKokkos::with_options(
        LjCut::single_type(1.0, 1.0, 2.5),
        &Space::Serial,
        PairKokkosOptions {
            force_half: Some(true),
            ..Default::default()
        },
    );
    Simulation::new(system, Box::new(pair))
}

/// The [`lj`] melt decomposed over 4 simulated MPI ranks (grid 1x2x2).
/// The warmup segment sizes the message pools; the measured segment
/// must then hold `pool_grow_after_warmup` at exactly 0 — that counter
/// is part of the committed baseline, so any steady-state allocation in
/// the exchange path fails the perf gate.
pub fn ranks4() -> RankWorkload {
    let n = 4;
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let mut atoms = AtomData::from_positions(&lat.positions(n, n, n));
    let units = Units::lj();
    create_velocities(&mut atoms, &units, 1.44, 87287);
    let mut spec = RunSpec::new(&atoms, lat.domain(n, n, n), 20).comm(CommSpec::Brick {
        ranks: 4,
        balance: None,
    });
    spec.warmup_steps = 10;
    RankWorkload {
        name: "ranks4",
        spec,
        factory: ranks4_sim,
    }
}

fn skewed8_sim(_rank: usize, system: System) -> Simulation {
    // Full list + newton off + canonical row order: the determinism
    // knobs under which rebalancing is bitwise invisible to the
    // trajectory (see `tests/balance_equivalence.rs`).
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

/// The load-balancer smoke: an elongated LJ box (32x4x4 cells) whose
/// first quarter along x keeps every atom while the tail keeps one in
/// four, decomposed over 8 ranks with rebalancing on. Statically the
/// dense slabs carry ~2.3x the mean load; the committed baseline pins
/// the `comm.balance_*` counters and the peak atom imbalance the
/// balancer settles at.
pub fn skewed8() -> RankWorkload {
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
    let mut spec = RunSpec::new(&atoms, domain, 16).comm(CommSpec::Brick {
        ranks: 8,
        balance: Some(BalancePolicy::default()),
    });
    spec.warmup_steps = 8;
    RankWorkload {
        name: "skewed8",
        spec,
        factory: skewed8_sim,
    }
}

/// Both rank-parallel workloads in report order: the static 4-rank
/// exchange smoke, then the 8-rank load-balancer smoke.
pub fn all_ranks() -> Vec<RankWorkload> {
    vec![ranks4(), skewed8()]
}
