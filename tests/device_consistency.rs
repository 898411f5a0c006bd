//! Functional cross-architecture consistency: the *physics* computed
//! on every simulated device is identical — performance portability
//! means the architecture descriptor changes predicted time, never
//! trajectories. (The KOKKOS package's core promise: single source,
//! same results, on any backend.)

mod common;

use lammps_kk::core::comm::reverse_forces;
use lammps_kk::prelude::*;

fn melt_on(space: Space) -> (f64, [f64; 3]) {
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let mut atoms = AtomData::from_positions(&lat.positions(4, 4, 4));
    create_velocities(&mut atoms, &Units::lj(), 1.44, 20260706);
    let system = System::new(atoms, lat.domain(4, 4, 4), space.clone());
    let pair = PairKokkos::new(LjCut::single_type(1.0, 1.0, 2.5), &space);
    let mut sim = Simulation::new(system, Box::new(pair));
    sim.run(25);
    let e = sim.total_energy();
    (e, sim.system.atoms.pos(100))
}

#[test]
fn every_architecture_computes_identical_physics() {
    let (e_ref, x_ref) = melt_on(Space::Serial);
    for arch in GpuArch::table1() {
        let name = arch.name;
        let (e, x) = melt_on(Space::device(arch));
        assert!(
            (e - e_ref).abs() < 1e-8 * e_ref.abs(),
            "{name}: energy {e} vs {e_ref}"
        );
        for k in 0..3 {
            assert!(
                (x[k] - x_ref[k]).abs() < 1e-8,
                "{name}: trajectory diverged in dim {k}"
            );
        }
    }
}

/// Owned-atom forces of `case` on `space` (ghost rows folded back where
/// the style scatters onto them) and whether its list rows are strided.
fn forces_on(case: &common::Case, space: Space) -> (Vec<f64>, bool) {
    let mut pair = (case.make_pair)(&space);
    let settings = NeighborSettings::new(pair.cutoff(), 0.3, pair.wants_half_list());
    let mut system = case.system(&space, &settings);
    let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
    pair.compute(&mut system, &list, false);
    system.atoms.sync(&Space::Serial, Mask::F);
    if pair.needs_reverse_comm() {
        reverse_forces(&mut system.atoms, &system.ghosts);
    }
    let f = system.atoms.f.h_view();
    let forces = (0..system.atoms.nlocal).flat_map(|i| f.get3(i)).collect();
    let strided = list.neighbors.layout() == lammps_kk::kokkos::Layout::Left;
    (forces, strided)
}

/// `got` is `want` to the bit where each work item writes only its own
/// force row, and within 1e-11 of the largest force where forces are
/// scattered.
fn assert_same_forces(case: &common::Case, got: &[f64], want: &[f64]) {
    let name = case.name;
    let scale = want.iter().fold(0.0f64, |m, f| m.max(f.abs()));
    assert!(scale > 0.0, "{name}: no force");
    assert_eq!(got.len(), want.len(), "{name}");
    for (n, (g, w)) in got.iter().zip(want).enumerate() {
        let same = if case.own_row {
            g.to_bits() == w.to_bits()
        } else {
            (g - w).abs() <= 1e-11 * scale
        };
        assert!(same, "{name}: force component {n}: {g:e} vs {w:e}");
    }
}

/// Every style reads the device's strided (`Layout::Left`) neighbor rows
/// as it reads the host's contiguous ones: same forces as `Space::Serial`
/// (see [`assert_same_forces`]).
#[test]
fn every_style_computes_serial_forces_from_device_rows() {
    for case in common::every_style() {
        let name = case.name;
        let (want, strided) = forces_on(&case, Space::Serial);
        assert!(!strided, "{name}: host rows are contiguous");
        let (got, strided) = forces_on(&case, Space::device(GpuArch::h100()));
        assert!(strided, "{name}: device rows are strided");
        assert_same_forces(&case, &got, &want);
    }
}

/// Every style with at least 2 048 owned atoms (each case's system tiled
/// until it has them), so that every kernel launch over atoms forks: on
/// `Threads` and on the device the forces are `Serial`'s (see
/// [`assert_same_forces`]). The small systems of the test above never
/// reach the fork threshold.
#[test]
fn every_style_forks_and_computes_serial_forces() {
    for case in common::every_style() {
        let m = (1..)
            .find(|m| case.positions.len() * m * m * m >= 2048)
            .unwrap();
        let case = case.tiled(m);
        let (want, _) = forces_on(&case, Space::Serial);
        let nlocal = want.len() / 3;
        assert!(nlocal >= 2048, "{}: {nlocal} owned atoms", case.name);
        for space in [Space::Threads, Space::device(GpuArch::h100())] {
            assert_same_forces(&case, &forces_on(&case, space).0, &want);
        }
    }
}
