//! Diagnostic computations ("compute" styles, §2.2): temperature,
//! kinetic energy, and pressure from the pair virial.

use crate::atom::AtomData;
use crate::domain::Domain;
use crate::units::Units;

/// Total kinetic energy `Σ ½ m v²` of owned atoms.
pub fn kinetic_energy(atoms: &AtomData, units: &Units) -> f64 {
    let vh = atoms.v.h_view();
    let typ = atoms.typ.h_view();
    let mut ke2 = 0.0;
    for i in 0..atoms.nlocal {
        let m = atoms.mass[typ.at([i]) as usize];
        let v = [vh.at([i, 0]), vh.at([i, 1]), vh.at([i, 2])];
        ke2 += m * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]);
    }
    0.5 * units.mvv2e * ke2
}

/// Instantaneous temperature with 3N−3 degrees of freedom (matching the
/// LAMMPS `compute temp` default of removed center-of-mass motion).
pub fn temperature(atoms: &AtomData, units: &Units) -> f64 {
    let n = atoms.nlocal;
    if n < 2 {
        return 0.0;
    }
    let dof = (3 * n - 3) as f64;
    2.0 * kinetic_energy(atoms, units) / (dof * units.boltz)
}

/// Pressure from the virial theorem:
/// `P = (N k_B T + W/3) / V` with `W = Σ r·f` the pair virial.
pub fn pressure(atoms: &AtomData, units: &Units, domain: &Domain, virial: f64) -> f64 {
    let n = atoms.nlocal as f64;
    let t = temperature(atoms, units);
    (n * units.boltz * t + virial / 3.0) / domain.volume()
}

/// Full pressure tensor (Voigt `xx, yy, zz, xy, xz, yz`) from the
/// kinetic term plus the pair virial tensor.
pub fn pressure_tensor(
    atoms: &AtomData,
    units: &Units,
    domain: &Domain,
    virial_tensor: [f64; 6],
) -> [f64; 6] {
    let vh = atoms.v.h_view();
    let typ = atoms.typ.h_view();
    let mut kin = [0.0f64; 6];
    for i in 0..atoms.nlocal {
        let m = atoms.mass[typ.at([i]) as usize] * units.mvv2e;
        let v = [vh.at([i, 0]), vh.at([i, 1]), vh.at([i, 2])];
        kin[0] += m * v[0] * v[0];
        kin[1] += m * v[1] * v[1];
        kin[2] += m * v[2] * v[2];
        kin[3] += m * v[0] * v[1];
        kin[4] += m * v[0] * v[2];
        kin[5] += m * v[1] * v[2];
    }
    let inv_v = 1.0 / domain.volume();
    let mut p = [0.0f64; 6];
    for k in 0..6 {
        p[k] = (kin[k] + virial_tensor[k]) * inv_v;
    }
    p
}

/// Radial distribution function g(r): histogram of pair distances
/// (minimum image, O(N²) — an analysis observable, not a force kernel).
/// Returns `(bin_centers, g)`.
pub fn rdf(atoms: &AtomData, domain: &Domain, r_max: f64, nbins: usize) -> (Vec<f64>, Vec<f64>) {
    let n = atoms.nlocal;
    let dr = r_max / nbins as f64;
    let mut hist = vec![0u64; nbins];
    for i in 0..n {
        for j in (i + 1)..n {
            let rsq = domain.min_image_dsq(&atoms.pos(i), &atoms.pos(j));
            if rsq < r_max * r_max {
                hist[(rsq.sqrt() / dr) as usize] += 1;
            }
        }
    }
    let rho = n as f64 / domain.volume();
    let centers: Vec<f64> = (0..nbins).map(|b| (b as f64 + 0.5) * dr).collect();
    let g = hist
        .iter()
        .zip(&centers)
        .map(|(&h, &r)| {
            let shell = 4.0 * std::f64::consts::PI * r * r * dr;
            // Pairs counted once: normalize by N/2 ideal-gas pairs.
            (2.0 * h as f64) / (n as f64 * rho * shell)
        })
        .collect();
    (centers, g)
}

/// Mean-squared displacement tracker (`compute msd`): snapshots the
/// unwrapped positions at construction and reports
/// `⟨|r(t) − r(0)|²⟩` using the periodic image flags.
#[derive(Debug)]
pub struct ComputeMsd {
    x0: Vec<[f64; 3]>,
}

impl ComputeMsd {
    pub fn new(atoms: &AtomData, domain: &Domain) -> Self {
        ComputeMsd {
            x0: (0..atoms.nlocal)
                .map(|i| atoms.unwrapped_pos(i, domain))
                .collect(),
        }
    }

    pub fn value(&self, atoms: &AtomData, domain: &Domain) -> f64 {
        let n = self.x0.len().min(atoms.nlocal);
        if n == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, x0) in self.x0.iter().enumerate().take(n) {
            let p = atoms.unwrapped_pos(i, domain);
            for k in 0..3 {
                let d = p[k] - x0[k];
                acc += d * d;
            }
        }
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinetic_energy_simple() {
        let mut a = AtomData::from_positions(&[[0.0; 3], [1.0; 3]]);
        let vh = a.v.h_view_mut();
        vh.set([0, 0], 2.0);
        vh.set([1, 1], -2.0);
        let u = Units::lj();
        // ½·1·4 + ½·1·4 = 4
        assert_eq!(kinetic_energy(&a, &u), 4.0);
    }

    #[test]
    fn temperature_of_two_atoms() {
        let mut a = AtomData::from_positions(&[[0.0; 3], [1.0; 3]]);
        a.v.h_view_mut().set([0, 0], 1.0);
        a.v.h_view_mut().set([1, 0], -1.0);
        let u = Units::lj();
        // KE = 1.0, dof = 3, T = 2*1/3.
        assert!((temperature(&a, &u) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_gas_pressure() {
        let mut a = AtomData::from_positions(&[[0.0; 3], [1.0; 3], [2.0; 3]]);
        for i in 0..3 {
            a.v.h_view_mut().set([i, 0], 1.0);
        }
        let u = Units::lj();
        let d = Domain::cubic(10.0);
        let p = pressure(&a, &u, &d, 0.0);
        let expect = 3.0 * u.boltz * temperature(&a, &u) / 1000.0;
        assert!((p - expect).abs() < 1e-15);
    }

    #[test]
    fn rdf_of_perfect_fcc_peaks_at_first_shell() {
        use crate::lattice::{Lattice, LatticeKind};
        let lat = Lattice::new(LatticeKind::Fcc, 1.0);
        let atoms = AtomData::from_positions(&lat.positions(4, 4, 4));
        let domain = lat.domain(4, 4, 4);
        let (r, g) = rdf(&atoms, &domain, 1.6, 160);
        // First shell at a/sqrt(2) ≈ 0.707.
        let (imax, _) = g
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!((r[imax] - 0.707).abs() < 0.02, "peak at {}", r[imax]);
        // No pairs below the first shell.
        assert!(g[..60].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn msd_tracks_ballistic_motion_through_pbc() {
        let mut atoms = AtomData::from_positions(&[[9.5, 5.0, 5.0]]);
        let domain = Domain::cubic(10.0);
        let msd = ComputeMsd::new(&atoms, &domain);
        // Move 2.0 in x, wrapping through the boundary.
        atoms.x.h_view_mut().set([0, 0], 11.5);
        atoms.wrap_positions(&domain);
        assert!(domain.contains(&atoms.pos(0)));
        let v = msd.value(&atoms, &domain);
        assert!((v - 4.0).abs() < 1e-12, "msd = {v}");
    }

    #[test]
    fn pressure_tensor_trace_matches_scalar_pressure() {
        use crate::comm::build_ghosts;
        use crate::lattice::{create_velocities, Lattice, LatticeKind};
        use crate::neighbor::{NeighborList, NeighborSettings};
        use crate::pair::lj::LjCut;
        use crate::pair::{PairKokkos, PairStyle};
        use crate::sim::System;
        use lkk_kokkos::Space;
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut atoms = AtomData::from_positions(&lat.positions(4, 4, 4));
        create_velocities(&mut atoms, &Units::lj(), 1.44, 4242);
        let space = Space::Threads;
        let mut system = System::new(atoms, lat.domain(4, 4, 4), space.clone());
        let mut pair = PairKokkos::new(LjCut::single_type(1.0, 1.0, 2.5), &space);
        let settings = NeighborSettings::new(2.5, 0.3, pair.wants_half_list());
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        let res = pair.compute(&mut system, &list, true);
        // Tensor trace reproduces the scalar virial.
        let trace = res.virial_tensor[0] + res.virial_tensor[1] + res.virial_tensor[2];
        assert!((trace - res.virial).abs() < 1e-9 * res.virial.abs().max(1.0));
        // Pressure tensor: trace/3 equals the scalar pressure, and the
        // cubic crystal is (statistically) isotropic with no shear.
        system.atoms.sync(&Space::Serial, crate::atom::Mask::V);
        let p6 = pressure_tensor(
            &system.atoms,
            &system.units,
            &system.domain,
            res.virial_tensor,
        );
        let p = pressure(&system.atoms, &system.units, &system.domain, res.virial);
        // The scalar `pressure` uses the 3N−3 dof temperature while the
        // tensor's kinetic term sums all 3N velocity components; they
        // agree up to that O(1/N) convention difference.
        assert!(
            (((p6[0] + p6[1] + p6[2]) / 3.0 - p) / p.abs().max(1e-12)).abs() < 1.5 / 255.0,
            "trace/3 {} vs p {p}",
            (p6[0] + p6[1] + p6[2]) / 3.0
        );
        for (k, shear) in p6.iter().enumerate().skip(3) {
            assert!(shear.abs() < 0.05 * p.abs().max(1.0), "shear {k}: {shear}");
        }
    }
}
