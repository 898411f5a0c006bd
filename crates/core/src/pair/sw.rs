//! The Stillinger-Weber potential — the other classic of the MANYBODY
//! package (§3.1), with explicit three-body angular terms:
//!
//! ```text
//! E  = Σ_{i<j} φ₂(r_ij) + Σ_i Σ_{j<k} φ₃(r_ij, r_ik, θ_jik)
//! φ₂ = A ε [B (σ/r)^p − (σ/r)^q] · exp(σ / (r − aσ))
//! φ₃ = λ ε [cos θ − cos θ₀]² · exp(γσ/(r_ij − aσ)) · exp(γσ/(r_ik − aσ))
//! ```
//!
//! Both terms vanish with all derivatives at the cutoff `aσ` (the
//! essential singularity in the exponent), so dynamics conserve energy
//! without any shifting. Default parameters are the published silicon
//! set (Stillinger & Weber 1985) in metal units.

use crate::atom::Mask;
use crate::neighbor::{NeighborList, TOWARD_J};
use crate::pair::scratch::with_neigh_scratch;
use crate::pair::{ForceScatter, PairResults, PairStyle, Tally};
use crate::sim::System;
use lkk_gpusim::KernelStats;

/// Stillinger-Weber parameters (single element).
#[derive(Debug, Clone, Copy)]
pub struct SwParams {
    pub epsilon: f64,
    pub sigma: f64,
    /// Cutoff in units of σ.
    pub a: f64,
    pub lambda: f64,
    pub gamma: f64,
    pub cos_theta0: f64,
    pub big_a: f64,
    pub big_b: f64,
    pub p: i32,
    pub q: i32,
}

impl Default for SwParams {
    /// The published silicon parameterization (ε in eV, σ in Å).
    fn default() -> Self {
        SwParams {
            epsilon: 2.1683,
            sigma: 2.0951,
            a: 1.80,
            lambda: 21.0,
            gamma: 1.20,
            cos_theta0: -1.0 / 3.0, // tetrahedral
            big_a: 7.049_556_277,
            big_b: 0.602_224_558_4,
            p: 4,
            q: 0,
        }
    }
}

impl SwParams {
    pub fn cutoff(&self) -> f64 {
        self.a * self.sigma
    }

    /// Two-body energy and dφ₂/dr. Zero at/after the cutoff.
    #[inline]
    pub fn phi2(&self, r: f64) -> (f64, f64) {
        let rc = self.cutoff();
        if r >= rc {
            return (0.0, 0.0);
        }
        let sr = self.sigma / r;
        let srp = sr.powi(self.p);
        let srq = sr.powi(self.q);
        let core = self.big_a * self.epsilon * (self.big_b * srp - srq);
        let dcore =
            self.big_a * self.epsilon * (-(self.p as f64) * self.big_b * srp + self.q as f64 * srq)
                / r;
        let ex = (self.sigma / (r - rc)).exp();
        let dex = -self.sigma / ((r - rc) * (r - rc)) * ex;
        (core * ex, dcore * ex + core * dex)
    }

    /// Radial factor of φ₃: `h(r) = exp(γσ/(r − aσ))` and dh/dr.
    #[inline]
    pub fn h3(&self, r: f64) -> (f64, f64) {
        let rc = self.cutoff();
        if r >= rc {
            return (0.0, 0.0);
        }
        let ex = (self.gamma * self.sigma / (r - rc)).exp();
        let dex = -self.gamma * self.sigma / ((r - rc) * (r - rc)) * ex;
        (ex, dex)
    }
}

/// The `pair_style sw` implementation.
pub struct PairSw {
    pub params: SwParams,
    name: String,
    scatter: ForceScatter,
}

impl PairSw {
    pub fn new(params: SwParams) -> Self {
        PairSw {
            params,
            name: "sw".into(),
            scatter: ForceScatter::default(),
        }
    }
}

impl PairStyle for PairSw {
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
        self.params.cutoff()
    }

    fn wants_half_list(&self) -> bool {
        false
    }

    fn scatter_grow_count(&self) -> u64 {
        self.scatter.grow_count()
    }

    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults {
        let space = system.space.clone();
        system.atoms.sync(&space, Mask::X | Mask::TYPE);
        let nlocal = system.atoms.nlocal;
        self.scatter.ensure(system.atoms.nall(), &space);
        let p = self.params;
        let walk = list.within(system.atoms.x.view_for(&space), p.cutoff());
        let tally = space.parallel_reduce_parts(
            "PairSwCompute",
            nlocal,
            self.scatter.parts(),
            Tally::default(),
            |i, forces| {
                with_neigh_scratch(|sc| {
                    // Pre-filter the in-cutoff neighbors (divergence
                    // pre-processing, §4.2.1 pattern) into per-thread
                    // scratch re-used across work items (`tests/alloc_gate.rs`).
                    walk.row::<TOWARD_J>(i, |j, d, rsq| {
                        sc.rel.push(d);
                        sc.rs.push(rsq.sqrt());
                        sc.ids.push(j);
                    });
                    let (rel, rs, ids) = (&sc.rel, &sc.rs, &sc.ids);
                    let mut tally = Tally::default();
                    let add_force = |atom: usize, f: [f64; 3]| forces.add3(atom, f);
                    // Two-body: one-sided over the full list (half energy).
                    for (m, &j) in ids.iter().enumerate() {
                        let (e2, de2) = p.phi2(rs[m]);
                        let fpair = -de2 / rs[m]; // force on j along +d
                        let f = [fpair * rel[m][0], fpair * rel[m][1], fpair * rel[m][2]];
                        // Half the pair force per visit (the mirrored visit
                        // adds the other half with opposite displacement).
                        let fh = [0.5 * f[0], 0.5 * f[1], 0.5 * f[2]];
                        add_force(j, fh);
                        add_force(i, [-fh[0], -fh[1], -fh[2]]);
                        if eflag {
                            tally.e += 0.5 * e2;
                            tally.add_pair_virial(0.5 * fpair, rel[m]);
                        }
                    }
                    // Three-body: all (j, k) pairs around center i.
                    for m1 in 0..ids.len() {
                        let (h1, dh1) = p.h3(rs[m1]);
                        if h1 == 0.0 {
                            continue;
                        }
                        for m2 in (m1 + 1)..ids.len() {
                            let (h2, dh2) = p.h3(rs[m2]);
                            if h2 == 0.0 {
                                continue;
                            }
                            let d1 = rel[m1];
                            let d2 = rel[m2];
                            let (r1, r2) = (rs[m1], rs[m2]);
                            let c = (d1[0] * d2[0] + d1[1] * d2[1] + d1[2] * d2[2]) / (r1 * r2);
                            let dc = c - p.cos_theta0;
                            let pref = p.lambda * p.epsilon;
                            // Gradients.
                            let dedc = pref * 2.0 * dc * h1 * h2;
                            let dedr1 = pref * dc * dc * dh1 * h2;
                            let dedr2 = pref * dc * dc * h1 * dh2;
                            let mut g1 = [0.0f64; 3]; // ∂E/∂d1
                            let mut g2 = [0.0f64; 3];
                            for k in 0..3 {
                                // ∂c/∂d1 = d2/(r1 r2) − c d1/r1².
                                g1[k] = dedc * (d2[k] / (r1 * r2) - c * d1[k] / (r1 * r1))
                                    + dedr1 * d1[k] / r1;
                                g2[k] = dedc * (d1[k] / (r1 * r2) - c * d2[k] / (r2 * r2))
                                    + dedr2 * d2[k] / r2;
                            }
                            let fj = [-g1[0], -g1[1], -g1[2]];
                            let fk = [-g2[0], -g2[1], -g2[2]];
                            add_force(ids[m1], fj);
                            add_force(ids[m2], fk);
                            add_force(i, [g1[0] + g2[0], g1[1] + g2[1], g1[2] + g2[2]]);
                            if !eflag {
                                continue;
                            }
                            tally.e += pref * dc * dc * h1 * h2;
                            // Virial: Σ d ⊗ f over the two legs, summed
                            // before they meet the tally (two
                            // `Tally::add_leg` calls associate otherwise).
                            let w6 = &mut tally.w;
                            w6[0] += d1[0] * fj[0] + d2[0] * fk[0];
                            w6[1] += d1[1] * fj[1] + d2[1] * fk[1];
                            w6[2] += d1[2] * fj[2] + d2[2] * fk[2];
                            w6[3] += 0.5
                                * (d1[0] * fj[1] + d1[1] * fj[0] + d2[0] * fk[1] + d2[1] * fk[0]);
                            w6[4] += 0.5
                                * (d1[0] * fj[2] + d1[2] * fj[0] + d2[0] * fk[2] + d2[2] * fk[0]);
                            w6[5] += 0.5
                                * (d1[1] * fj[2] + d1[2] * fj[1] + d2[1] * fk[2] + d2[2] * fk[1]);
                        }
                    }
                    tally
                })
            },
            Tally::join,
        );
        self.scatter.contribute(system);
        if space.is_device() {
            let mut k = KernelStats::new("PairSwCompute");
            k.work_items = nlocal as f64;
            let avg = list.avg_neighbors();
            k.flops = nlocal as f64 * (avg * 40.0 + avg * avg / 2.0 * 90.0);
            k.dram_bytes = nlocal as f64 * 48.0 + list.total_pairs as f64 * 28.0;
            k.working_set_bytes = list.working_set_bytes_cached();
            k.atomic_f64_ops = nlocal as f64 * (avg * 6.0 + avg * avg / 2.0 * 9.0);
            space.note_kernel(k);
        }
        tally.results(eflag)
    }

    fn needs_reverse_comm(&self) -> bool {
        true // forces scatter onto ghost neighbors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomData;
    use crate::comm::{build_ghosts, reverse_forces};
    use crate::domain::Domain;
    use crate::lattice::create_velocities;
    use crate::neighbor::NeighborSettings;
    use crate::sim::Simulation;
    use crate::units::Units;
    use lkk_kokkos::Space;

    /// Diamond-cubic silicon positions (8 atoms per cell, a = 5.431 Å).
    fn diamond(n: usize) -> (Vec<[f64; 3]>, Domain) {
        let a = 5.431;
        let basis = [
            [0.0, 0.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
            [0.25, 0.25, 0.25],
            [0.25, 0.75, 0.75],
            [0.75, 0.25, 0.75],
            [0.75, 0.75, 0.25],
        ];
        let mut pos = Vec::new();
        for ix in 0..n {
            for iy in 0..n {
                for iz in 0..n {
                    for b in &basis {
                        pos.push([
                            (ix as f64 + b[0]) * a,
                            (iy as f64 + b[1]) * a,
                            (iz as f64 + b[2]) * a,
                        ]);
                    }
                }
            }
        }
        (pos, Domain::cubic(a * n as f64))
    }

    fn compute(
        positions: &[[f64; 3]],
        domain: Domain,
        space: Space,
    ) -> (Vec<[f64; 3]>, PairResults) {
        let mut pair = PairSw::new(SwParams::default());
        compute_with(&mut pair, positions, domain, space, true)
    }

    /// One evaluation through `pair` on fresh ghosts and a fresh list:
    /// owner forces and results.
    fn compute_with(
        pair: &mut PairSw,
        positions: &[[f64; 3]],
        domain: Domain,
        space: Space,
        eflag: bool,
    ) -> (Vec<[f64; 3]>, PairResults) {
        let mut atoms = AtomData::from_positions(positions);
        atoms.mass = vec![28.0855];
        let mut system = System::new(atoms, domain, space.clone()).with_units(Units::metal());
        let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
        system.atoms.wrap_positions(&system.domain);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        let res = pair.compute(&mut system, &list, eflag);
        system.atoms.sync(&Space::Serial, Mask::F);
        reverse_forces(&mut system.atoms, &system.ghosts);
        let fh = system.atoms.f.h_view();
        let forces = (0..positions.len())
            .map(|i| [fh.at([i, 0]), fh.at([i, 1]), fh.at([i, 2])])
            .collect();
        (forces, res)
    }

    /// The deterministic bump of the perturbed-lattice tests.
    fn perturbed_diamond() -> (Vec<[f64; 3]>, Domain) {
        let (mut pos, domain) = diamond(2);
        for (i, p) in pos.iter_mut().enumerate() {
            for (k, c) in p.iter_mut().enumerate() {
                *c += 0.12 * (((i * 7 + k * 3) % 13) as f64 / 13.0 - 0.5);
            }
        }
        (pos, domain)
    }

    #[test]
    fn diamond_silicon_cohesive_energy_is_correct() {
        // SW silicon is fit to E_coh = −4.3363 eV/atom at a = 5.431 Å —
        // a strong end-to-end anchor against the published potential.
        let (pos, domain) = diamond(2);
        let (forces, res) = compute(&pos, domain, Space::Threads);
        let per_atom = res.energy / pos.len() as f64;
        assert!(
            (per_atom - (-4.3363)).abs() < 5e-3,
            "E_coh = {per_atom} eV/atom"
        );
        // Perfect lattice: zero forces.
        for f in &forces {
            for c in f {
                assert!(c.abs() < 1e-9);
            }
        }
    }

    #[test]
    fn forces_match_finite_difference() {
        let (pos, domain) = perturbed_diamond();
        let (forces, _) = compute(&pos, domain, Space::Serial);
        let h = 1e-6;
        for &a in &[0usize, 21, 40] {
            for k in 0..3 {
                let mut pp = pos.clone();
                let mut pm = pos.clone();
                pp[a][k] += h;
                pm[a][k] -= h;
                let ep = compute(&pp, domain, Space::Serial).1.energy;
                let em = compute(&pm, domain, Space::Serial).1.energy;
                let fd = -(ep - em) / (2.0 * h);
                assert!(
                    (forces[a][k] - fd).abs() < 1e-5 * fd.abs().max(1.0),
                    "atom {a} dir {k}: {} vs {fd}",
                    forces[a][k]
                );
            }
        }
    }

    #[test]
    fn spaces_agree() {
        let (mut pos, domain) = diamond(2);
        for (i, p) in pos.iter_mut().enumerate() {
            p[0] += 0.05 * ((i % 5) as f64 - 2.0) / 5.0;
        }
        let (f_ref, r_ref) = compute(&pos, domain, Space::Serial);
        for space in [Space::Threads, Space::device(lkk_gpusim::GpuArch::h100())] {
            let (f, r) = compute(&pos, domain, space);
            assert!((r.energy - r_ref.energy).abs() < 1e-9 * r_ref.energy.abs());
            for (a, b) in f.iter().zip(&f_ref) {
                for k in 0..3 {
                    assert!((a[k] - b[k]).abs() < 1e-8);
                }
            }
        }
    }

    /// `eflag` off skips the energy and virial tallies and nothing else:
    /// same forces to the bit on every space, default results.
    #[test]
    fn eflag_off_changes_no_force_bit() {
        let (pos, domain) = perturbed_diamond();
        for space in [
            Space::Serial,
            Space::Threads,
            Space::device(lkk_gpusim::GpuArch::h100()),
        ] {
            let forces_with = |eflag: bool| {
                let mut pair = PairSw::new(SwParams::default());
                let (f, res) = compute_with(&mut pair, &pos, domain, space.clone(), eflag);
                let bits: Vec<[u64; 3]> = f.iter().map(|f| f.map(f64::to_bits)).collect();
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
    fn scatter_view_is_reused_when_the_ghost_count_moves() {
        let (pos, domain) = diamond(2);
        // Half an Å along x moves a lattice plane inside the ghost cutoff.
        let shifted: Vec<[f64; 3]> = pos.iter().map(|p| [p[0] + 0.5, p[1], p[2]]).collect();
        let mut pair = PairSw::new(SwParams::default());
        crate::pair::tests::assert_scatter_pool_is_reused(&mut pair, &pos, &shifted, domain);
    }

    #[test]
    fn nve_conserves_energy() {
        let (pos, domain) = diamond(2);
        let mut atoms = AtomData::from_positions(&pos);
        atoms.mass = vec![28.0855];
        create_velocities(&mut atoms, &Units::metal(), 600.0, 31415);
        let space = Space::Threads;
        let system = System::new(atoms, domain, space.clone()).with_units(Units::metal());
        let pair = PairSw::new(SwParams::default());
        let mut sim = Simulation::new(system, Box::new(pair));
        sim.dt = 0.001;
        sim.setup();
        let e0 = sim.total_energy();
        sim.run(50);
        let drift = ((sim.total_energy() - e0) / pos.len() as f64).abs();
        assert!(drift < 2e-4, "per-atom drift {drift} eV");
    }
}
