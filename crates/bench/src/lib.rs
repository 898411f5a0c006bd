//! Shared workload builders and measurement plumbing for the figure
//! harnesses (see DESIGN.md §4 for the experiment index).
//!
//! Every harness follows the same recipe:
//!
//! 1. build the paper's workload (LJ melt / HNS-like ReaxFF crystal /
//!    bcc SNAP) on a *simulated device* execution space,
//! 2. run the real kernels once to collect measured per-kernel event
//!    counts from the launch log,
//! 3. feed the counts through the `lkk-gpusim` cost model at the
//!    paper's system sizes / architectures / cache configurations, and
//! 4. print the table/series the paper reports.

use lkk_core::atom::AtomData;
use lkk_core::comm::build_ghosts;
use lkk_core::lattice::{Lattice, LatticeKind};
use lkk_core::neighbor::{NeighborList, NeighborSettings};
use lkk_core::pair::lj::LjCut;
use lkk_core::pair::{PairKokkos, PairKokkosOptions, PairStyle};
use lkk_core::sim::System;
use lkk_core::units::Units;
use lkk_gpusim::{GpuArch, KernelStats};
use lkk_kokkos::Space;
use lkk_machine::{CommProfile, Workload};
use lkk_reaxff::{hns, PairReaxff, ReaxParams};
use lkk_snap::{PairSnap, SnapKernelConfig, SnapParams};

/// Measured per-step kernel stats + the atom count they refer to.
pub struct Measured {
    pub natoms: f64,
    pub stats: Vec<KernelStats>,
    pub avg_neighbors: f64,
}

fn device_space(arch: GpuArch) -> Space {
    Space::device(arch)
}

fn drain(space: &Space) -> Vec<KernelStats> {
    space
        .device_ctx()
        .expect("device space required")
        .log
        .drain()
}

/// Build an LJ melt with roughly `target_atoms` atoms and run one force
/// computation on `arch`, returning measured kernel stats.
pub fn measure_lj(target_atoms: usize, arch: GpuArch, options: PairKokkosOptions) -> Measured {
    measure_lj_with_cutoff(target_atoms, arch, options, 2.5)
}

/// [`measure_lj`] at an explicit force cutoff (the §4.1 ablation axis).
pub fn measure_lj_with_cutoff(
    target_atoms: usize,
    arch: GpuArch,
    options: PairKokkosOptions,
    cutoff: f64,
) -> Measured {
    let cells = ((target_atoms as f64 / 4.0).cbrt().round() as usize).max(3);
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let atoms = AtomData::from_positions(&lat.positions(cells, cells, cells));
    let space = device_space(arch);
    let mut system = System::new(atoms, lat.domain(cells, cells, cells), space.clone());
    let mut pair = PairKokkos::with_options(LjCut::single_type(1.0, 1.0, cutoff), &space, options);
    let half = pair.wants_half_list();
    let settings = NeighborSettings::new(pair.cutoff(), 0.3, half);
    system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
    let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
    let avg = list.avg_neighbors();
    // Perturb slightly so forces are non-trivial (perfect lattices
    // short-circuit nothing, but keep it honest).
    let _ = pair.compute(&mut system, &list, true);
    let natoms = system.atoms.nlocal as f64;
    // Keep only the pair kernel (neighbor build/launch noise aside) and
    // add the integration kernels of one timestep.
    let mut stats: Vec<KernelStats> = drain(&space)
        .into_iter()
        .filter(|s| s.name.starts_with("PairCompute"))
        .collect();
    let mut nve = KernelStats::new("Integrate");
    nve.work_items = natoms;
    nve.flops = natoms * 18.0;
    nve.dram_bytes = natoms * 96.0;
    nve.launches = 2.0;
    stats.push(nve);
    Measured {
        natoms,
        stats,
        avg_neighbors: avg,
    }
}

/// LJ communication profile (fcc melt at ρ* = 0.8442, r_c = 2.5σ).
pub fn lj_comm() -> CommProfile {
    CommProfile {
        cut_ghost: 2.8,
        number_density: 0.8442,
        bytes_per_halo_atom: 24.0,
        messages_per_step: 12.0,
        allreduces_per_step: 0.0,
    }
}

/// Build a bcc SNAP workload and measure one force computation.
pub fn measure_snap(target_atoms: usize, arch: GpuArch, config: SnapKernelConfig) -> Measured {
    let cells = ((target_atoms as f64 / 2.0).cbrt().round() as usize).max(3);
    let lat = Lattice::new(LatticeKind::Bcc, 3.16);
    let atoms = AtomData::from_positions(&lat.positions(cells, cells, cells));
    let space = device_space(arch);
    let mut system = System::new(atoms, lat.domain(cells, cells, cells), space.clone())
        .with_units(Units::metal());
    let mut pair = PairSnap::new(SnapParams::default(), &space).with_config(config);
    let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
    system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
    let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
    let avg = list.avg_neighbors();
    let _ = pair.compute(&mut system, &list, true);
    let natoms = system.atoms.nlocal as f64;
    let stats = drain(&space)
        .into_iter()
        .filter(|s| s.name.starts_with("Compute") || s.name.starts_with("PairSnap"))
        .collect();
    Measured {
        natoms,
        stats,
        avg_neighbors: avg,
    }
}

/// SNAP communication profile (bcc tungsten-like, r_c = 4.7 Å).
pub fn snap_comm() -> CommProfile {
    CommProfile {
        cut_ghost: 5.0,
        number_density: 2.0 / (3.16f64.powi(3)),
        bytes_per_halo_atom: 48.0,
        messages_per_step: 12.0,
        allreduces_per_step: 0.0,
    }
}

/// The reduced ReaxFF implements the σ-only bond-order chemistry; the
/// full force field evaluates ~6× more bonded work per atom (π/π²
/// bond orders, lone pairs, under-coordination, valence conjugation,
/// three-/four-body permutation sets, hydrogen bonds) spread over many
/// more kernels. Figure-level harnesses scale the measured bonded and
/// non-bonded event counts by this factor so absolute ReaxFF rates land
/// in the paper's regime; QEq is complete as implemented and is not
/// scaled. (DESIGN.md §2, substitution table.)
pub const REAXFF_FULL_CHEMISTRY_WORK: f64 = 6.0;
pub const REAXFF_FULL_CHEMISTRY_LAUNCHES: f64 = 8.0;

/// Build an HNS-like ReaxFF crystal and measure one force computation.
pub fn measure_reaxff(target_atoms: usize, arch: GpuArch) -> Measured {
    let cells = ((target_atoms as f64 / 18.0).cbrt().round() as usize).max(2);
    let (pos, types, domain) = hns::crystal(cells, cells, cells, 7.5);
    let mut atoms = AtomData::from_positions(&pos);
    atoms.mass = vec![12.0, 1.0, 14.0, 16.0];
    for (i, &t) in types.iter().enumerate() {
        atoms.typ.h_view_mut().set([i], t);
    }
    let space = device_space(arch);
    let mut system = System::new(atoms, domain, space.clone()).with_units(Units::metal());
    let mut pair = PairReaxff::new(ReaxParams::hns_like());
    let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
    system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
    let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
    let avg = list.avg_neighbors();
    let _ = pair.compute(&mut system, &list, true);
    let natoms = system.atoms.nlocal as f64;
    let stats = drain(&space)
        .into_iter()
        .map(|mut s| {
            if !s.name.starts_with("QEq") {
                s.flops *= REAXFF_FULL_CHEMISTRY_WORK;
                s.dram_bytes *= REAXFF_FULL_CHEMISTRY_WORK;
                s.reused_bytes *= REAXFF_FULL_CHEMISTRY_WORK;
                s.atomic_f64_ops *= REAXFF_FULL_CHEMISTRY_WORK;
                s.launches *= REAXFF_FULL_CHEMISTRY_LAUNCHES;
            }
            s
        })
        .collect();
    Measured {
        natoms,
        stats,
        avg_neighbors: avg,
    }
}

/// ReaxFF communication profile (HNS-like molecular crystal, QEq CG
/// halo+allreduce traffic measured from `iterations`).
pub fn reaxff_comm(cg_iterations: f64) -> CommProfile {
    CommProfile {
        cut_ghost: 8.0,
        number_density: 18.0 / 7.5f64.powi(3),
        bytes_per_halo_atom: 32.0,
        messages_per_step: 12.0 + 2.0 * cg_iterations,
        allreduces_per_step: 3.0 * cg_iterations,
    }
}

/// Predicted single-device time per timestep for measured stats scaled
/// to `natoms`, at the default (heuristic) cache configuration.
pub fn step_time(measured: &Measured, natoms: f64, arch: &GpuArch) -> f64 {
    let w = Workload::from_measured("w", measured.stats.clone(), measured.natoms, lj_comm());
    w.kernel_time(natoms, arch)
}

/// Convert a `Measured` into a `lkk-machine` workload.
pub fn to_workload(name: &str, measured: &Measured, comm: CommProfile) -> Workload {
    Workload::from_measured(name, measured.stats.clone(), measured.natoms, comm)
}

/// Format atoms/second-style rates compactly.
pub fn eng(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2}G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2}M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2}k", x / 1e3)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lj_measurement_produces_pair_kernel() {
        let m = measure_lj(4000, GpuArch::h100(), PairKokkosOptions::default());
        assert!(m.natoms >= 2000.0);
        assert!(m.stats.iter().any(|s| s.name == "PairComputeLJCut"));
        assert!(m.avg_neighbors > 30.0, "avg neigh {}", m.avg_neighbors);
    }

    #[test]
    fn snap_measurement_produces_three_kernels() {
        let m = measure_snap(1024, GpuArch::h100(), SnapKernelConfig::default());
        for k in ["ComputeUi", "ComputeYi", "ComputeFusedDeidrj"] {
            assert!(m.stats.iter().any(|s| s.name == k), "{k} missing");
        }
    }

    #[test]
    fn reaxff_measurement_produces_qeq_kernels() {
        let m = measure_reaxff(600, GpuArch::h100());
        assert!(m.stats.iter().any(|s| s.name == "QEqSpmvFused"));
        assert!(m.stats.iter().any(|s| s.name == "TorsionCompute"));
    }

    #[test]
    fn step_time_scales_superlinearly_below_saturation() {
        let m = measure_lj(8000, GpuArch::h100(), PairKokkosOptions::default());
        let arch = GpuArch::h100();
        let t_small = step_time(&m, 1e4, &arch);
        let t_big = step_time(&m, 1e7, &arch);
        // 1000× more atoms, less than 1000× more time (saturation).
        assert!(t_big > t_small);
        assert!(t_big / t_small < 1000.0);
    }
}
