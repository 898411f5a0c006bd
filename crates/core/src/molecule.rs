//! Fixed-topology bonded interactions — the MOLECULE package of §3.1
//! ("for bonded interactions").
//!
//! Harmonic bond and angle styles over an explicit [`Topology`]
//! (contrast with ReaxFF, where bonds are *recomputed* every step):
//!
//! ```text
//! E_bond  = Σ k_b (r − r₀)²
//! E_angle = Σ k_θ (θ − θ₀)²
//! ```
//!
//! [`PairMolecular`] composes a non-bonded pair style with the bonded
//! terms, the way a LAMMPS input combines `pair_style` + `bond_style` +
//! `angle_style`.

use crate::atom::Mask;
use crate::neighbor::NeighborList;
use crate::pair::{PairResults, PairStyle};
use crate::sim::System;
use lkk_kokkos::Space;

/// A harmonic bond: atoms by index, stiffness `k`, rest length `r0`.
#[derive(Debug, Clone, Copy)]
pub struct Bond {
    pub i: u32,
    pub j: u32,
    pub k: f64,
    pub r0: f64,
}

/// A harmonic angle j–i–k (center first), stiffness `k`, rest angle
/// `theta0` in radians.
#[derive(Debug, Clone, Copy)]
pub struct Angle {
    pub center: u32,
    pub j: u32,
    pub k_atom: u32,
    pub k: f64,
    pub theta0: f64,
}

/// Explicit molecular topology.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    pub bonds: Vec<Bond>,
    pub angles: Vec<Angle>,
}

impl Topology {
    /// Compute bonded energy and accumulate forces (minimum-image
    /// displacements; owned atoms only). Returns `(energy, virial)`.
    pub fn compute(&self, system: &mut System) -> (f64, f64) {
        system.atoms.sync(&Space::Serial, Mask::X);
        let domain = system.domain;
        let mut energy = 0.0;
        let mut virial = 0.0;
        let n = system.atoms.nlocal;
        let mut forces = vec![[0.0f64; 3]; n];
        {
            let xh = system.atoms.x.h_view();
            let pos = |i: u32| -> [f64; 3] {
                let i = i as usize;
                [xh.at([i, 0]), xh.at([i, 1]), xh.at([i, 2])]
            };
            for b in &self.bonds {
                let d = domain.min_image(&pos(b.i), &pos(b.j));
                let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                let dr = r - b.r0;
                energy += b.k * dr * dr;
                let dedr = 2.0 * b.k * dr;
                for k in 0..3 {
                    let f = -dedr * d[k] / r; // force on i (d = x_i − x_j)
                    forces[b.i as usize][k] += f;
                    forces[b.j as usize][k] -= f;
                    virial += d[k] * f;
                }
            }
            for a in &self.angles {
                let d1 = domain.min_image(&pos(a.j), &pos(a.center));
                let d2 = domain.min_image(&pos(a.k_atom), &pos(a.center));
                let r1 = (d1[0] * d1[0] + d1[1] * d1[1] + d1[2] * d1[2]).sqrt();
                let r2 = (d2[0] * d2[0] + d2[1] * d2[1] + d2[2] * d2[2]).sqrt();
                let c =
                    ((d1[0] * d2[0] + d1[1] * d2[1] + d1[2] * d2[2]) / (r1 * r2)).clamp(-1.0, 1.0);
                let theta = c.acos();
                let dth = theta - a.theta0;
                energy += a.k * dth * dth;
                // dE/dcosθ = dE/dθ · dθ/dcosθ = 2kΔθ · (−1/sinθ).
                let s = (1.0 - c * c).sqrt().max(1e-9);
                let dedc = -2.0 * a.k * dth / s;
                for k in 0..3 {
                    let g1 = dedc * (d2[k] / (r1 * r2) - c * d1[k] / (r1 * r1));
                    let g2 = dedc * (d1[k] / (r1 * r2) - c * d2[k] / (r2 * r2));
                    forces[a.j as usize][k] -= g1;
                    forces[a.k_atom as usize][k] -= g2;
                    forces[a.center as usize][k] += g1 + g2;
                    virial -= d1[k] * g1 + d2[k] * g2;
                }
            }
        }
        let fh = system.atoms.f.h_view_mut();
        for (i, f) in forces.iter().enumerate() {
            for (k, &fk) in f.iter().enumerate() {
                let v = fh.at([i, k]) + fk;
                fh.set([i, k], v);
            }
        }
        system.atoms.modified(&Space::Serial, Mask::F);
        (energy, virial)
    }
}

/// A pair style plus a molecular topology (`pair_style` + `bond_style`
/// + `angle_style` in one).
pub struct PairMolecular<P: PairStyle> {
    pub pair: P,
    pub topology: Topology,
    name: String,
}

impl<P: PairStyle> PairMolecular<P> {
    pub fn new(pair: P, topology: Topology) -> Self {
        PairMolecular {
            name: format!("{}+molecular", pair.name()),
            pair,
            topology,
        }
    }
}

impl<P: PairStyle + 'static> PairStyle for PairMolecular<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn cutoff(&self) -> f64 {
        self.pair.cutoff()
    }

    fn wants_half_list(&self) -> bool {
        self.pair.wants_half_list()
    }

    fn needs_reverse_comm(&self) -> bool {
        self.pair.needs_reverse_comm()
    }

    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults {
        let mut res = self.pair.compute(system, list, eflag);
        // Bonded terms add on the host mirror after the pair kernel
        // (forces must be synced home first if the pair ran on device).
        system.atoms.sync(&Space::Serial, Mask::F);
        let (e_mol, w_mol) = self.topology.compute(system);
        if eflag {
            res.energy += e_mol;
            res.virial += w_mol;
            for k in 0..3 {
                res.virial_tensor[k] += w_mol / 3.0;
            }
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomData;
    use crate::domain::Domain;
    use crate::pair::yukawa::Yukawa;
    use crate::pair::PairKokkos;
    use crate::sim::Simulation;

    fn water_like() -> (Vec<[f64; 3]>, Topology) {
        // O at center, two H at ~0.96 with a ~104.5° angle.
        let positions = vec![[5.0, 5.0, 5.0], [5.96, 5.05, 5.0], [4.78, 5.92, 5.0]];
        let topology = Topology {
            bonds: vec![
                Bond {
                    i: 0,
                    j: 1,
                    k: 22.0,
                    r0: 0.9572,
                },
                Bond {
                    i: 0,
                    j: 2,
                    k: 22.0,
                    r0: 0.9572,
                },
            ],
            angles: vec![Angle {
                center: 0,
                j: 1,
                k_atom: 2,
                k: 1.7,
                theta0: 104.52f64.to_radians(),
            }],
        };
        (positions, topology)
    }

    #[test]
    fn bonded_forces_match_finite_difference() {
        let (positions, topology) = water_like();
        let energy_of = |pos: &[[f64; 3]]| -> f64 {
            let atoms = AtomData::from_positions(pos);
            let mut system = System::new(atoms, Domain::cubic(10.0), Space::Serial);
            topology.compute(&mut system).0
        };
        let atoms = AtomData::from_positions(&positions);
        let mut system = System::new(atoms, Domain::cubic(10.0), Space::Serial);
        system.atoms.zero_forces();
        topology.compute(&mut system);
        let fh = system.atoms.f.h_view();
        let h = 1e-6;
        for a in 0..3 {
            for k in 0..3 {
                let mut pp = positions.clone();
                let mut pm = positions.clone();
                pp[a][k] += h;
                pm[a][k] -= h;
                let fd = -(energy_of(&pp) - energy_of(&pm)) / (2.0 * h);
                assert!(
                    (fh.at([a, k]) - fd).abs() < 1e-6 * fd.abs().max(1e-3),
                    "atom {a} dir {k}: {} vs {fd}",
                    fh.at([a, k])
                );
            }
        }
    }

    #[test]
    fn molecular_nve_conserves_energy() {
        // A water-like molecule with an inert (weak Yukawa) non-bonded
        // background, integrated microcanonically.
        let (positions, topology) = water_like();
        let mut atoms = AtomData::from_positions(&positions);
        atoms.mass = vec![16.0];
        // Small initial stretch so the molecule vibrates.
        atoms.x.h_view_mut().set([1, 0], 6.05);
        let space = Space::Serial;
        let system = System::new(atoms, Domain::cubic(10.0), space.clone());
        let pair = PairKokkos::new(Yukawa::new(1e-6, 1.0, 2.5), &space);
        let molecular = PairMolecular::new(pair, topology);
        let mut sim = Simulation::new(system, Box::new(molecular));
        sim.dt = 0.002;
        sim.setup();
        let e0 = sim.total_energy();
        sim.run(500);
        let drift = (sim.total_energy() - e0).abs();
        assert!(drift < 1e-4, "drift {drift}");
        // The molecule is still intact: bond length near r0.
        let d = sim
            .system
            .domain
            .min_image(&sim.system.atoms.pos(0), &sim.system.atoms.pos(1));
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        assert!((r - 0.9572).abs() < 0.2, "bond length {r}");
    }

    /// `eflag` off skips the energy and virial tallies and nothing else:
    /// same forces to the bit, default results.
    #[test]
    fn eflag_off_changes_no_force_bit() {
        let forces_with = |eflag: bool| {
            let (mut positions, topology) = water_like();
            positions[1][0] = 6.05;
            let space = Space::Serial;
            let atoms = AtomData::from_positions(&positions);
            let mut system = System::new(atoms, Domain::cubic(10.0), space.clone());
            let pair = PairKokkos::new(Yukawa::new(0.5, 1.0, 2.5), &space);
            let mut molecular = PairMolecular::new(pair, topology);
            let settings = crate::neighbor::NeighborSettings::new(2.5, 0.3, true);
            system.ghosts =
                crate::comm::build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
            let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
            let res = molecular.compute(&mut system, &list, eflag);
            let fh = system.atoms.f.h_view();
            let bits: Vec<[u64; 3]> = (0..system.atoms.nall())
                .map(|i| fh.get3(i).map(f64::to_bits))
                .collect();
            (bits, res)
        };
        let (f_on, res_on) = forces_with(true);
        let (f_off, res_off) = forces_with(false);
        assert_eq!(f_on, f_off);
        assert!(f_on.iter().flatten().any(|&b| f64::from_bits(b) != 0.0));
        assert_eq!(res_off, PairResults::default());
        assert_ne!(res_on.energy, 0.0);
        assert_ne!(res_on.virial, 0.0);
    }

    #[test]
    fn rest_geometry_has_zero_bonded_force() {
        // Place the atoms exactly at the rest bond lengths and angle.
        let theta: f64 = 104.52f64.to_radians();
        let positions = vec![
            [5.0, 5.0, 5.0],
            [5.0 + 0.9572, 5.0, 5.0],
            [5.0 + 0.9572 * theta.cos(), 5.0 + 0.9572 * theta.sin(), 5.0],
        ];
        let (_, topology) = water_like();
        let atoms = AtomData::from_positions(&positions);
        let mut system = System::new(atoms, Domain::cubic(10.0), Space::Serial);
        let (e, _) = topology.compute(&mut system);
        assert!(e < 1e-12, "rest energy {e}");
        let fh = system.atoms.f.h_view();
        for a in 0..3 {
            for k in 0..3 {
                assert!(fh.at([a, k]).abs() < 1e-9);
            }
        }
    }
}
