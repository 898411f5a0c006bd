//! ReaxFF physics gate through the pair style, on the warm-started
//! path.
//!
//! `PairReaxff` on a jittered 2×2×2 HNS-like cell (144 atoms): after a
//! few MD steps — so the charges come from a solve that started at the
//! extrapolated history, not at zero — the forces are the gradient of
//! the total energy with the charges re-equilibrated at every
//! displaced point, momentum is conserved, the charges are neutral and
//! stationary, and NVE holds its energy as well as a run that solves
//! cold on every step. These are statements about the physics, not
//! about any earlier version of the kernels, so they license
//! refreshing the bit-level baselines when the solve's starting point
//! or the pair terms' arithmetic changes.

use lammps_kk::core::comm::build_ghosts;
use lammps_kk::prelude::*;
use lammps_kk::reaxff::hns;
use lammps_kk::reaxff::nonbonded::PairTable;
use lammps_kk::reaxff::qeq::QeqMatrix;

const MASSES: [f64; 4] = [12.0, 1.0, 14.0, 16.0];

/// 2×2×2 molecules on an 8.5 Å lattice (a 17 Å box, just over twice
/// the ghost cutoff), every coordinate jittered by ±0.04 Å.
fn jittered_cell() -> (Vec<[f64; 3]>, Vec<i32>, Domain) {
    let (mut pos, types, domain) = hns::crystal(2, 2, 2, 8.5);
    for (i, p) in pos.iter_mut().enumerate() {
        for (k, x) in p.iter_mut().enumerate() {
            *x += 0.08 * (((i * 29 + k * 11) % 31) as f64 / 31.0 - 0.5);
        }
    }
    (pos, types, domain)
}

fn atoms_of(positions: &[[f64; 3]], types: &[i32]) -> AtomData {
    let mut atoms = AtomData::from_positions(positions);
    atoms.mass = MASSES.to_vec();
    for (i, &t) in types.iter().enumerate() {
        atoms.typ.h_view_mut().set([i], t);
    }
    atoms
}

/// NVE at 0.1 fs from 300 K on `Space::Serial`.
fn md(seed: u64) -> Simulation {
    let (pos, types, domain) = jittered_cell();
    let mut atoms = atoms_of(&pos, &types);
    create_velocities(&mut atoms, &Units::metal(), 300.0, seed);
    SimulationBuilder::new(atoms, domain)
        .units(Units::metal())
        .pair(PairReaxff::new(ReaxParams::hns_like()))
        .dt(0.0001)
        .build()
}

fn reax(sim: &Simulation) -> &PairReaxff {
    sim.pair.as_any().downcast_ref().expect("reaxff style")
}

/// Total potential energy of `positions`, charges equilibrated from
/// the zero guess by a pair style that has no history.
fn cold_energy(positions: &[[f64; 3]], types: &[i32], domain: &Domain) -> f64 {
    let mut pair = PairReaxff::new(ReaxParams::hns_like());
    let mut system = System::new(atoms_of(positions, types), *domain, Space::Serial);
    let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
    system.atoms.wrap_positions(&system.domain);
    system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
    let list = NeighborList::build(&system.atoms, &system.domain, &settings, &Space::Serial);
    pair.compute(&mut system, &list, true).energy
}

#[test]
fn warm_forces_are_the_energy_gradient_and_sum_to_zero() {
    let mut sim = md(2024);
    sim.run(8);
    assert!(
        reax(&sim).last_qeq_iterations <= 10,
        "step 8 is not on the warm path: {} iterations",
        reax(&sim).last_qeq_iterations
    );
    let atoms = &sim.system.atoms;
    let n = atoms.nlocal;
    let positions: Vec<_> = (0..n).map(|i| atoms.pos(i)).collect();
    let types: Vec<_> = (0..n).map(|i| atoms.typ.h_view().at([i])).collect();
    let forces: Vec<_> = (0..n).map(|i| atoms.f.h_view().get3(i)).collect();

    for k in 0..3 {
        let net: f64 = forces.iter().map(|f| f[k]).sum();
        assert!(net.abs() <= 1e-7, "net force {net:e} along {k}");
    }

    // One atom of each element, every direction.
    let h = 1e-5;
    for element in [hns::TYPE_C, hns::TYPE_H, hns::TYPE_N, hns::TYPE_O] {
        let a = types.iter().position(|&t| t == element).unwrap() + 18 * 3;
        assert_eq!(types[a], element);
        for dir in 0..3 {
            let (mut plus, mut minus) = (positions.clone(), positions.clone());
            plus[a][dir] += h;
            minus[a][dir] -= h;
            let fd = -(cold_energy(&plus, &types, &sim.system.domain)
                - cold_energy(&minus, &types, &sim.system.domain))
                / (2.0 * h);
            assert!(
                (forces[a][dir] - fd).abs() <= 2e-4 * fd.abs().max(1.0),
                "atom {a} (type {element}) dir {dir}: warm {} vs -dE/dx {fd}",
                forces[a][dir]
            );
        }
    }
}

#[test]
fn warm_charges_are_neutral_and_stationary() {
    let mut sim = md(7);
    sim.run(8);
    assert!(reax(&sim).last_qeq_iterations <= 10);
    let q = reax(&sim).last_charges.clone();
    assert!(q.iter().sum::<f64>().abs() <= 1e-8);

    // At the constrained minimum ∇E = χ + Aq is one constant (the
    // chemical potential) on every atom.
    let params = ReaxParams::hns_like();
    let mut matrix = QeqMatrix::default();
    let space = Space::Serial;
    let settings = NeighborSettings::new(params.r_nonb, 0.3, false);
    let list = NeighborList::build(&sim.system.atoms, &sim.system.domain, &settings, &space);
    matrix.build(
        &sim.system.atoms,
        &list,
        &sim.system.ghosts,
        &params,
        &PairTable::new(&params),
        &space,
    );
    let n = matrix.n;
    let (mut aq, mut unused) = (vec![0.0; n], vec![0.0; n]);
    matrix.spmv_fused(&q, &q, &mut aq, &mut unused, &space);
    let typ = sim.system.atoms.typ.h_view();
    let grad: Vec<f64> = (0..n)
        .map(|i| params.elements[typ.at([i]) as usize].chi + aq[i])
        .collect();
    let mean = grad.iter().sum::<f64>() / n as f64;
    let worst = grad.iter().map(|g| (g - mean).abs()).fold(0.0, f64::max);
    assert!(worst <= 1e-6, "chi + Aq uniform only to {worst:e}");
}

/// Largest |E(t) − E(0)| per atom over `steps` NVE steps, solving warm
/// (the style keeps its history) or cold (a fresh style is swapped in
/// before every step: an empty history is the zero guess).
fn nve_excursion(steps: usize, cold: bool) -> (f64, usize) {
    let mut sim = md(99);
    sim.setup();
    let e0 = sim.total_energy();
    let mut worst = 0.0f64;
    let mut iterations = 0;
    for _ in 0..steps {
        if cold {
            sim.pair = Box::new(PairReaxff::new(ReaxParams::hns_like()));
        }
        sim.run(1);
        iterations += reax(&sim).last_qeq_iterations;
        worst = worst.max((sim.total_energy() - e0).abs());
    }
    (worst / sim.system.atoms.nlocal as f64, iterations)
}

#[test]
fn nve_holds_its_energy_as_well_as_a_cold_solve_every_step() {
    let steps = 2000;
    let (warm, warm_iterations) = nve_excursion(steps, false);
    let (cold, cold_iterations) = nve_excursion(steps, true);
    assert!(
        warm <= 1.5 * cold,
        "|dE|/atom over {steps} steps: warm {warm:e} eV vs cold {cold:e} eV"
    );
    assert!(
        2 * warm_iterations < cold_iterations,
        "CG iterations: warm {warm_iterations}, cold {cold_iterations}"
    );
}
