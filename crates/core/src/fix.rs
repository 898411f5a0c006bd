//! "Fix" styles: operations applied at fixed points of every timestep
//! (§2.2). We implement the two the benchmarks need: `nve` (velocity
//! Verlet time integration) and `langevin` (stochastic thermostat).

use crate::atom::Mask;
use crate::sim::System;

/// A persistent style invoked at set points in the timestep loop.
pub trait Fix: Send {
    fn name(&self) -> &str;
    /// Before force computation: first half-kick and drift.
    fn initial_integrate(&mut self, _system: &mut System, _dt: f64) {}
    /// After force computation, before the final kick.
    fn post_force(&mut self, _system: &mut System, _dt: f64, _step: u64) {}
    /// After force computation: second half-kick.
    fn final_integrate(&mut self, _system: &mut System, _dt: f64) {}
}

/// `fix nve`: microcanonical velocity-Verlet integration.
#[derive(Debug, Default)]
pub struct FixNve;

impl Fix for FixNve {
    fn name(&self) -> &str {
        "nve"
    }

    fn initial_integrate(&mut self, system: &mut System, dt: f64) {
        let space = system.space.clone();
        system
            .atoms
            .sync(&space, Mask::X | Mask::V | Mask::F | Mask::TYPE);
        let nlocal = system.atoms.nlocal;
        let mass = system.atoms.mass.clone();
        let mvv2e = system.units.mvv2e;
        let atoms = &mut system.atoms;
        let typ = atoms.typ.view_for(&space);
        let f = atoms.f.view_for(&space);
        // v and x are updated per-atom: each item owns its two rows.
        let rows = (
            atoms.x.view_for_mut(&space).rows_mut(),
            atoms.v.view_for_mut(&space).rows_mut(),
        );
        space.parallel_for_parts("NVEInitialIntegrate", nlocal, rows, |i, (mut x, mut v)| {
            let dtfm = 0.5 * dt / (mass[typ.at([i]) as usize] * mvv2e);
            for k in 0..3 {
                v[k] += dtfm * f.at([i, k]);
                x[k] += dt * v[k];
            }
        });
        system.atoms.modified(&space, Mask::X | Mask::V);
    }

    fn final_integrate(&mut self, system: &mut System, dt: f64) {
        let space = system.space.clone();
        system.atoms.sync(&space, Mask::V | Mask::F | Mask::TYPE);
        let nlocal = system.atoms.nlocal;
        let mass = system.atoms.mass.clone();
        let mvv2e = system.units.mvv2e;
        let atoms = &mut system.atoms;
        let typ = atoms.typ.view_for(&space);
        let f = atoms.f.view_for(&space);
        let rows = atoms.v.view_for_mut(&space).rows_mut();
        space.parallel_for_parts("NVEFinalIntegrate", nlocal, rows, |i, mut v| {
            let dtfm = 0.5 * dt / (mass[typ.at([i]) as usize] * mvv2e);
            for k in 0..3 {
                v[k] += dtfm * f.at([i, k]);
            }
        });
        system.atoms.modified(&space, Mask::V);
    }
}

/// Counter-based Gaussian noise: deterministic, order-independent, and
/// safe to evaluate from any thread (splitmix64 + Box-Muller).
#[inline]
fn gaussian_hash(seed: u64, step: u64, atom: u64, lane: u64) -> f64 {
    let mut z = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(step.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(atom.wrapping_mul(0x94d049bb133111eb))
        .wrapping_add(lane.wrapping_mul(0xd6e8feb86659fd93));
    let mut next = || {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    };
    let u1 = (next() >> 11) as f64 / (1u64 << 53) as f64;
    let u2 = (next() >> 11) as f64 / (1u64 << 53) as f64;
    let u1 = u1.max(1e-300);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `fix langevin`: friction + stochastic force thermostat,
/// `F += −(m/damp) v + √(2 m k_B T / (damp·dt)) ξ`.
#[derive(Debug)]
pub struct FixLangevin {
    pub t_target: f64,
    pub damp: f64,
    pub seed: u64,
}

impl FixLangevin {
    pub fn new(t_target: f64, damp: f64, seed: u64) -> Self {
        assert!(damp > 0.0, "langevin damp must be positive");
        FixLangevin {
            t_target,
            damp,
            seed,
        }
    }
}

impl Fix for FixLangevin {
    fn name(&self) -> &str {
        "langevin"
    }

    fn post_force(&mut self, system: &mut System, dt: f64, step: u64) {
        let space = system.space.clone();
        system.atoms.sync(&space, Mask::V | Mask::F | Mask::TYPE);
        let nlocal = system.atoms.nlocal;
        let mass = system.atoms.mass.clone();
        let units = system.units;
        let (t_target, damp, seed) = (self.t_target, self.damp, self.seed);
        let atoms = &mut system.atoms;
        let typ = atoms.typ.view_for(&space);
        let v = atoms.v.view_for(&space);
        let rows = atoms.f.view_for_mut(&space).rows_mut();
        space.parallel_for_parts("LangevinPostForce", nlocal, rows, |i, mut f| {
            let m = mass[typ.at([i]) as usize];
            let gamma1 = -m * units.mvv2e / damp;
            let gamma2 = (2.0 * units.boltz * t_target * m * units.mvv2e / (damp * dt)).sqrt();
            for k in 0..3 {
                let noise = gaussian_hash(seed, step, i as u64, k as u64);
                f[k] += gamma1 * v.at([i, k]) + gamma2 * noise;
            }
        });
        system.atoms.modified(&space, Mask::F);
    }
}

/// `fix nvt`: Nosé-Hoover thermostatted integration (single chain,
/// velocity-Verlet splitting à la Martyna-Tuckerman-Klein). Replaces
/// `fix nve`: it performs the full time integration.
#[derive(Debug)]
pub struct FixNvt {
    pub t_target: f64,
    /// Thermostat damping time (same units as dt; LAMMPS `Tdamp`).
    pub t_damp: f64,
    /// Thermostat velocity (ξ) and its "mass" is derived per step.
    xi: f64,
    nve: FixNve,
}

impl FixNvt {
    pub fn new(t_target: f64, t_damp: f64) -> Self {
        assert!(t_damp > 0.0);
        FixNvt {
            t_target,
            t_damp,
            xi: 0.0,
            nve: FixNve,
        }
    }

    /// Half-step thermostat: update ξ from the temperature error and
    /// rescale velocities.
    fn thermostat_half(&mut self, system: &mut System, dt: f64) {
        system.atoms.sync(&lkk_kokkos::Space::Serial, Mask::V);
        let t_now = crate::compute::temperature(&system.atoms, &system.units);
        if t_now <= 0.0 {
            return;
        }
        let q = self.t_damp * self.t_damp; // thermostat inertia (scaled)
        self.xi += 0.5 * dt * (t_now / self.t_target - 1.0) / q;
        let scale = (-0.5 * dt * self.xi).exp();
        let n = system.atoms.nlocal;
        let vh = system.atoms.v.h_view_mut();
        for i in 0..n {
            for k in 0..3 {
                let v = vh.at([i, k]) * scale;
                vh.set([i, k], v);
            }
        }
    }
}

impl Fix for FixNvt {
    fn name(&self) -> &str {
        "nvt"
    }

    fn initial_integrate(&mut self, system: &mut System, dt: f64) {
        self.thermostat_half(system, dt);
        self.nve.initial_integrate(system, dt);
    }

    fn final_integrate(&mut self, system: &mut System, dt: f64) {
        self.nve.final_integrate(system, dt);
        self.thermostat_half(system, dt);
    }
}

/// `fix momentum`: zero the center-of-mass linear momentum at a fixed
/// interval (prevents the "flying ice cube" under long thermostatted
/// runs).
#[derive(Debug)]
pub struct FixMomentum {
    pub every: u64,
}

impl Fix for FixMomentum {
    fn name(&self) -> &str {
        "momentum"
    }

    fn post_force(&mut self, system: &mut System, _dt: f64, step: u64) {
        if self.every == 0 || !step.is_multiple_of(self.every) {
            return;
        }
        system
            .atoms
            .sync(&lkk_kokkos::Space::Serial, Mask::V | Mask::TYPE);
        let n = system.atoms.nlocal;
        let mass = system.atoms.mass.clone();
        let mut p = [0.0f64; 3];
        let mut mtot = 0.0;
        {
            let vh = system.atoms.v.h_view();
            let typ = system.atoms.typ.h_view();
            for i in 0..n {
                let m = mass[typ.at([i]) as usize];
                mtot += m;
                for (k, pk) in p.iter_mut().enumerate() {
                    *pk += m * vh.at([i, k]);
                }
            }
        }
        let vh = system.atoms.v.h_view_mut();
        for i in 0..n {
            for (k, &pk) in p.iter().enumerate() {
                let v = vh.at([i, k]) - pk / mtot;
                vh.set([i, k], v);
            }
        }
        system.atoms.modified(&lkk_kokkos::Space::Serial, Mask::V);
    }
}

/// `fix setforce`: clamp force components to fixed values (commonly 0
/// to freeze boundary layers). `None` leaves a component untouched.
#[derive(Debug)]
pub struct FixSetForce {
    /// Applies to atoms with index < `first_n` (a simple "group").
    pub first_n: usize,
    pub fx: Option<f64>,
    pub fy: Option<f64>,
    pub fz: Option<f64>,
}

impl Fix for FixSetForce {
    fn name(&self) -> &str {
        "setforce"
    }

    fn post_force(&mut self, system: &mut System, _dt: f64, _step: u64) {
        system.atoms.sync(&lkk_kokkos::Space::Serial, Mask::F);
        let n = self.first_n.min(system.atoms.nlocal);
        let fh = system.atoms.f.h_view_mut();
        for i in 0..n {
            if let Some(v) = self.fx {
                fh.set([i, 0], v);
            }
            if let Some(v) = self.fy {
                fh.set([i, 1], v);
            }
            if let Some(v) = self.fz {
                fh.set([i, 2], v);
            }
        }
        system.atoms.modified(&lkk_kokkos::Space::Serial, Mask::F);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomData;
    use crate::domain::Domain;
    use lkk_kokkos::Space;

    fn free_particle_system() -> System {
        let mut atoms = AtomData::from_positions(&[[5.0, 5.0, 5.0]]);
        atoms.v.h_view_mut().set([0, 0], 1.0);
        System::new(atoms, Domain::cubic(10.0), Space::Serial)
    }

    #[test]
    fn nve_free_particle_moves_linearly() {
        let mut system = free_particle_system();
        let mut nve = FixNve;
        for _ in 0..10 {
            nve.initial_integrate(&mut system, 0.1);
            nve.final_integrate(&mut system, 0.1);
        }
        let p = system.atoms.pos(0);
        assert!((p[0] - 6.0).abs() < 1e-12);
        assert_eq!(system.atoms.v.h_view().at([0, 0]), 1.0);
    }

    #[test]
    fn nve_constant_force_matches_kinematics() {
        let mut system = free_particle_system();
        system.atoms.v.h_view_mut().set([0, 0], 0.0);
        let mut nve = FixNve;
        let dt = 0.01;
        let nsteps = 100;
        // Constant force present from the start (reapplied each step).
        system.atoms.f.h_view_mut().set([0, 0], 2.0);
        for _ in 0..nsteps {
            nve.initial_integrate(&mut system, dt);
            // constant F = 2 (reapplied each step after the drift).
            system.atoms.f.h_view_mut().set([0, 0], 2.0);
            system.atoms.modified(&Space::Serial, Mask::F);
            nve.final_integrate(&mut system, dt);
        }
        let t = dt * nsteps as f64;
        // x = x0 + ½at² exactly for velocity Verlet with constant force.
        let p = system.atoms.pos(0);
        assert!(
            (p[0] - (5.0 + 0.5 * 2.0 * t * t)).abs() < 1e-9,
            "x = {}",
            p[0]
        );
        let v = system.atoms.v.h_view().at([0, 0]);
        assert!((v - 2.0 * t).abs() < 1e-9);
    }

    #[test]
    fn gaussian_hash_statistics() {
        let n = 100_000;
        let mut mean = 0.0;
        let mut var = 0.0;
        for i in 0..n {
            let g = gaussian_hash(42, 7, i, 0);
            mean += g;
            var += g * g;
        }
        mean /= n as f64;
        var /= n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        // Deterministic.
        assert_eq!(gaussian_hash(1, 2, 3, 4), gaussian_hash(1, 2, 3, 4));
        assert_ne!(gaussian_hash(1, 2, 3, 4), gaussian_hash(1, 2, 3, 5));
    }

    #[test]
    fn langevin_damps_fast_particle() {
        // At T=0 the thermostat is pure friction: F = -(m/damp) v.
        let mut system = free_particle_system();
        let mut lang = FixLangevin::new(0.0, 0.5, 9);
        system.atoms.zero_forces();
        lang.post_force(&mut system, 0.005, 0);
        let f = system.atoms.f.h_view().at([0, 0]);
        assert!((f - (-1.0 / 0.5)).abs() < 1e-12, "f = {f}");
    }

    #[test]
    fn nvt_regulates_temperature() {
        use crate::lattice::{create_velocities, Lattice, LatticeKind};
        use crate::pair::lj::LjCut;
        use crate::pair::PairKokkos;
        use crate::sim::Simulation;
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut atoms = crate::atom::AtomData::from_positions(&lat.positions(4, 4, 4));
        create_velocities(&mut atoms, &crate::units::Units::lj(), 0.3, 99);
        let space = Space::Threads;
        let system = System::new(atoms, lat.domain(4, 4, 4), space.clone());
        let pair = PairKokkos::new(LjCut::single_type(1.0, 1.0, 2.5), &space);
        let mut sim = Simulation::new(system, Box::new(pair))
            .with_fixes(vec![Box::new(FixNvt::new(1.0, 0.1))]);
        sim.run(800);
        // Average over a window.
        let mut acc = 0.0;
        for _ in 0..20 {
            sim.run(10);
            acc += crate::compute::temperature(&sim.system.atoms, &sim.system.units);
        }
        let t_avg = acc / 20.0;
        assert!((t_avg - 1.0).abs() < 0.2, "T_avg = {t_avg}");
    }

    #[test]
    fn momentum_fix_zeroes_drift() {
        let mut system = free_particle_system();
        // Give the single particle (and thus the system) momentum.
        system.atoms.v.h_view_mut().set([0, 1], 3.0);
        let mut fix = FixMomentum { every: 1 };
        fix.post_force(&mut system, 0.005, 1);
        let vh = system.atoms.v.h_view();
        for k in 0..3 {
            assert!(vh.at([0, k]).abs() < 1e-12);
        }
    }

    #[test]
    fn setforce_clamps_components() {
        let mut system = free_particle_system();
        system.atoms.f.h_view_mut().set([0, 0], 5.0);
        system.atoms.f.h_view_mut().set([0, 2], -2.0);
        let mut fix = FixSetForce {
            first_n: 1,
            fx: Some(0.0),
            fy: None,
            fz: Some(1.0),
        };
        fix.post_force(&mut system, 0.005, 0);
        let fh = system.atoms.f.h_view();
        assert_eq!(fh.at([0, 0]), 0.0);
        assert_eq!(fh.at([0, 2]), 1.0);
    }
}
