//! The Embedded Atom Method (EAM) — the style the paper's Figure 1
//! diagrams (`PairEAMKokkos`), and the flagship of the MANYBODY package
//! (§3.1).
//!
//! EAM is the simplest potential with a *per-atom intermediate*: the
//! host-side electron density
//!
//! ```text
//! ρ_i = Σ_j ψ(r_ij),    E_i = F(ρ_i) + ½ Σ_j φ(r_ij),
//! ```
//!
//! whose embedding derivative `F′(ρ)` must be known for ghost atoms
//! before the force pass — "the EAM pair style requires additional
//! communication, which is performed with calls to the LAMMPS
//! communication classes" (Fig. 1). Here that is the
//! [`crate::comm::GhostMap`]-driven forward communication of `F′(ρ)`.
//!
//! Analytic single-element parameterization (Johnson-style nearest-
//! neighbor EAM): exponential density, square-root embedding, and a
//! Morse-like pair term, all smoothly switched off at the cutoff.

use crate::atom::Mask;
use crate::neighbor::{NeighborList, TOWARD_I};
use crate::pair::{PairResults, PairStyle, Tally};
use crate::sim::System;
use crate::switch::cubic_switch;
use lkk_gpusim::KernelStats;
use lkk_kokkos::{parts, Space};

/// Johnson-style analytic EAM parameters.
#[derive(Debug, Clone, Copy)]
pub struct EamParams {
    /// Density prefactor.
    pub rho_a: f64,
    /// Density decay (1/Å-ish).
    pub beta: f64,
    /// Nearest-neighbor reference distance.
    pub r0: f64,
    /// Embedding strength: `F(ρ) = −e_c·sqrt(ρ/ρ_ref)`.
    pub e_c: f64,
    /// Reference density (coordination × ψ(r0) of the target lattice).
    pub rho_ref: f64,
    /// Pair-repulsion strength and decay.
    pub phi_a: f64,
    pub phi_alpha: f64,
    /// Cutoff.
    pub cut: f64,
}

impl Default for EamParams {
    fn default() -> Self {
        // A generic fcc-metal-ish parameter set (Cu-like magnitudes).
        EamParams {
            rho_a: 1.0,
            beta: 5.0,
            r0: 2.55,
            e_c: 3.5,
            rho_ref: 12.0 * 1.0, // 12 nearest neighbors × ψ(r0)=1
            phi_a: 0.4,
            phi_alpha: 4.0,
            cut: 4.95,
        }
    }
}

impl EamParams {
    /// Density contribution ψ(r) and dψ/dr, switched to zero at `cut`.
    #[inline]
    pub fn density(&self, r: f64) -> (f64, f64) {
        if r >= self.cut {
            return (0.0, 0.0);
        }
        let e = (-self.beta * (r / self.r0 - 1.0)).exp();
        let de = -self.beta / self.r0 * e;
        let (s, ds) = cubic_switch(r, 0.8 * self.cut, self.cut);
        (self.rho_a * e * s, self.rho_a * (de * s + e * ds))
    }

    /// Pair repulsion φ(r) and dφ/dr.
    #[inline]
    pub fn phi(&self, r: f64) -> (f64, f64) {
        if r >= self.cut {
            return (0.0, 0.0);
        }
        let e = (-self.phi_alpha * (r / self.r0 - 1.0)).exp();
        let de = -self.phi_alpha / self.r0 * e;
        let (s, ds) = cubic_switch(r, 0.8 * self.cut, self.cut);
        (self.phi_a * e * s, self.phi_a * (de * s + e * ds))
    }

    /// Embedding energy F(ρ) and F′(ρ).
    #[inline]
    pub fn embed(&self, rho: f64) -> (f64, f64) {
        // sqrt embedding with a guard at ρ → 0 (F' would diverge).
        let x = (rho / self.rho_ref).max(1e-12);
        let f = -self.e_c * x.sqrt();
        let fp = -self.e_c * 0.5 / (self.rho_ref * x.sqrt());
        (f, fp)
    }
}

/// The EAM pair style (`pair_style eam`).
pub struct PairEam {
    pub params: EamParams,
    name: String,
    /// F′(ρ) for locals + ghosts (the communicated intermediate).
    fp: Vec<f64>,
    rho: Vec<f64>,
}

impl PairEam {
    pub fn new(params: EamParams) -> Self {
        PairEam {
            params,
            name: "eam".into(),
            fp: Vec::new(),
            rho: Vec::new(),
        }
    }

    /// Last computed per-atom densities (locals).
    pub fn densities(&self) -> &[f64] {
        &self.rho
    }
}

impl PairStyle for PairEam {
    fn name(&self) -> &str {
        &self.name
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    fn cutoff(&self) -> f64 {
        self.params.cut
    }

    fn wants_half_list(&self) -> bool {
        false
    }

    fn needs_reverse_comm(&self) -> bool {
        false // one-sided force accumulation over the full list
    }

    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults {
        let space = system.space.clone();
        system.atoms.sync(&Space::Serial, Mask::X | Mask::TYPE);
        let nlocal = system.atoms.nlocal;
        let nall = system.atoms.nall();
        let params = self.params;
        let walk = list.within(system.atoms.x.h_view(), params.cut);

        // --- Pass 1: densities of owned atoms. ---
        self.rho.clear();
        self.rho.resize(nlocal, 0.0);
        let densities = parts::elements(&mut self.rho);
        space.parallel_for_parts("EAMDensity", nlocal, densities, |i, rho| {
            let mut acc = 0.0;
            walk.row::<TOWARD_I>(i, |_, _, rsq| acc += params.density(rsq.sqrt()).0);
            *rho = acc;
        });

        // --- Embedding energy + F'(ρ), then the Fig.-1 communication:
        //     forward F' to ghost copies so the force pass can read
        //     fp_j for any neighbor. ---
        let mut energy = 0.0;
        self.fp.clear();
        self.fp.resize(nall, 0.0);
        for i in 0..nlocal {
            let (f, fp) = params.embed(self.rho[i]);
            if eflag {
                energy += f;
            }
            self.fp[i] = fp;
        }
        system.forward_ghost_scalar(&mut self.fp);

        // --- Pass 2: forces (one-sided over the full list). ---
        let walk = list.within(system.atoms.x.h_view(), params.cut);
        let f = system.atoms.f.view_for_mut(&Space::Serial);
        f.fill(0.0);
        let fp = &self.fp;
        let pairs = space.parallel_reduce_parts(
            "EAMForce",
            nlocal,
            f.rows_mut(),
            Tally::default(),
            |i, mut row| {
                let mut fi = [0.0f64; 3];
                let mut tally = Tally::default();
                walk.row::<TOWARD_I>(i, |j, d, rsq| {
                    let r = rsq.sqrt();
                    let (phi, dphi) = params.phi(r);
                    let (_, dpsi) = params.density(r);
                    // dE/dr for the pair: φ' + (F'_i + F'_j)·ψ'.
                    let dedr = dphi + (fp[i] + fp[j]) * dpsi;
                    let fpair = -dedr / r;
                    for k in 0..3 {
                        fi[k] += fpair * d[k];
                    }
                    if eflag {
                        tally.e += 0.5 * phi;
                        tally.add_pair_virial(0.5 * fpair, d);
                    }
                });
                for (k, fik) in fi.into_iter().enumerate() {
                    row[k] = fik;
                }
                tally
            },
            Tally::join,
        );
        system.atoms.modified(&Space::Serial, Mask::F);

        if space.is_device() {
            let mut k = KernelStats::new("EAMForce");
            k.work_items = nlocal as f64;
            k.flops = list.total_pairs as f64 * 45.0;
            k.dram_bytes = nlocal as f64 * 64.0 + list.total_pairs as f64 * 4.0;
            k.reused_bytes = list.total_pairs as f64 * 32.0;
            k.working_set_bytes = list.working_set_bytes_cached() * 4.0 / 3.0;
            space.note_kernel(k);
        }

        Tally {
            e: energy + pairs.e,
            ..pairs
        }
        .results(eflag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomData;
    use crate::comm::build_ghosts;
    use crate::lattice::{Lattice, LatticeKind};
    use crate::neighbor::NeighborSettings;

    fn fcc_system(a: f64, n: usize, perturb: f64) -> (System, NeighborList) {
        fcc_system_on(Space::Serial, a, n, perturb)
    }

    fn fcc_system_on(space: Space, a: f64, n: usize, perturb: f64) -> (System, NeighborList) {
        let lat = Lattice::new(LatticeKind::Fcc, a);
        let positions: Vec<[f64; 3]> = lat
            .positions(n, n, n)
            .iter()
            .enumerate()
            .map(|(i, p)| {
                [
                    p[0] + perturb * (((i * 7) % 11) as f64 / 11.0 - 0.5),
                    p[1] + perturb * (((i * 5) % 13) as f64 / 13.0 - 0.5),
                    p[2] + perturb * (((i * 3) % 17) as f64 / 17.0 - 0.5),
                ]
            })
            .collect();
        let atoms = AtomData::from_positions(&positions);
        let mut system = System::new(atoms, lat.domain(n, n, n), space.clone());
        let settings = NeighborSettings::new(4.95, 0.3, false);
        system.atoms.wrap_positions(&system.domain);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        (system, list)
    }

    #[test]
    fn perfect_fcc_has_zero_force_and_cohesion() {
        let (mut system, list) = fcc_system(3.61, 3, 0.0);
        let mut eam = PairEam::new(EamParams::default());
        let res = eam.compute(&mut system, &list, true);
        let fh = system.atoms.f.h_view();
        for i in 0..system.atoms.nlocal {
            for k in 0..3 {
                assert!(fh.at([i, k]).abs() < 1e-9);
            }
        }
        // Cohesive (negative) energy dominated by embedding.
        assert!(res.energy < 0.0);
        // Densities near the reference coordination.
        let rho = eam.densities()[0];
        assert!(rho > 6.0 && rho < 20.0, "rho = {rho}");
    }

    #[test]
    fn forces_match_finite_difference() {
        let energy_of = |perturb_extra: Option<(usize, usize, f64)>| -> f64 {
            let lat = Lattice::new(LatticeKind::Fcc, 3.61);
            let mut positions: Vec<[f64; 3]> = lat
                .positions(3, 3, 3)
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    [
                        p[0] + 0.1 * (((i * 7) % 11) as f64 / 11.0 - 0.5),
                        p[1] + 0.1 * (((i * 5) % 13) as f64 / 13.0 - 0.5),
                        p[2] + 0.1 * (((i * 3) % 17) as f64 / 17.0 - 0.5),
                    ]
                })
                .collect();
            if let Some((a, k, h)) = perturb_extra {
                positions[a][k] += h;
            }
            let atoms = AtomData::from_positions(&positions);
            let space = Space::Serial;
            let mut system = System::new(atoms, lat.domain(3, 3, 3), space.clone());
            let settings = NeighborSettings::new(4.95, 0.3, false);
            system.atoms.wrap_positions(&system.domain);
            system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
            let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
            let mut eam = PairEam::new(EamParams::default());
            eam.compute(&mut system, &list, true).energy
        };
        // Analytic forces on the same configuration.
        let lat = Lattice::new(LatticeKind::Fcc, 3.61);
        let positions: Vec<[f64; 3]> = lat
            .positions(3, 3, 3)
            .iter()
            .enumerate()
            .map(|(i, p)| {
                [
                    p[0] + 0.1 * (((i * 7) % 11) as f64 / 11.0 - 0.5),
                    p[1] + 0.1 * (((i * 5) % 13) as f64 / 13.0 - 0.5),
                    p[2] + 0.1 * (((i * 3) % 17) as f64 / 17.0 - 0.5),
                ]
            })
            .collect();
        let atoms = AtomData::from_positions(&positions);
        let space = Space::Serial;
        let mut system = System::new(atoms, lat.domain(3, 3, 3), space.clone());
        let settings = NeighborSettings::new(4.95, 0.3, false);
        system.atoms.wrap_positions(&system.domain);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        let mut eam = PairEam::new(EamParams::default());
        eam.compute(&mut system, &list, true);
        let fh = system.atoms.f.h_view();
        let h = 1e-6;
        for &a in &[0usize, 13, 50] {
            for k in 0..3 {
                let fd = -(energy_of(Some((a, k, h))) - energy_of(Some((a, k, -h)))) / (2.0 * h);
                let an = fh.at([a, k]);
                assert!(
                    (an - fd).abs() < 1e-5 * fd.abs().max(1.0),
                    "atom {a} dir {k}: {an} vs {fd}"
                );
            }
        }
    }

    #[test]
    fn embedding_makes_eam_non_pairwise() {
        // Remove one atom: the energy change differs from the sum of
        // pair energies (many-body signature).
        let (mut system, list) = fcc_system(3.61, 3, 0.05);
        let mut eam = PairEam::new(EamParams::default());
        let e_full = eam.compute(&mut system, &list, true).energy;
        // Pure pair part of the same configuration.
        let mut pair_only = PairEam::new(EamParams {
            e_c: 0.0,
            ..EamParams::default()
        });
        let e_pair = pair_only.compute(&mut system, &list, true).energy;
        assert!((e_full - e_pair).abs() > 1.0, "embedding inert?");
    }

    /// `eflag` off skips the energy and virial tallies and nothing else:
    /// same forces to the bit on every space, default results.
    #[test]
    fn eflag_off_changes_no_force_bit() {
        for space in [
            Space::Serial,
            Space::Threads,
            Space::device(lkk_gpusim::GpuArch::h100()),
        ] {
            let forces_with = |eflag: bool| {
                let (mut system, list) = fcc_system_on(space.clone(), 3.61, 3, 0.05);
                let res = PairEam::new(EamParams::default()).compute(&mut system, &list, eflag);
                let fh = system.atoms.f.h_view();
                let bits: Vec<[u64; 3]> = (0..system.atoms.nlocal)
                    .map(|i| fh.get3(i).map(f64::to_bits))
                    .collect();
                (bits, res)
            };
            let (f_on, res_on) = forces_with(true);
            let (f_off, res_off) = forces_with(false);
            assert_eq!(f_on, f_off);
            assert_eq!(res_off, PairResults::default());
            assert_ne!(res_on.energy, 0.0);
            assert_ne!(res_on.virial, 0.0);
        }
    }

    #[test]
    fn ghost_fp_communication_is_consistent() {
        let (mut system, list) = fcc_system(3.61, 3, 0.05);
        let mut eam = PairEam::new(EamParams::default());
        eam.compute(&mut system, &list, true);
        let nlocal = system.atoms.nlocal;
        for (g, &owner) in system.ghosts.owner.iter().enumerate() {
            assert_eq!(eam.fp[nlocal + g], eam.fp[owner]);
        }
    }
}
