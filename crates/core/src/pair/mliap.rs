//! A generic machine-learning interatomic potential interface — the
//! ML-IAP integration strategy of the paper's Appendix A.
//!
//! Appendix A describes how LAMMPS hosts ML potentials that are *not*
//! hand-ported to Kokkos: a generic driver computes descriptors and
//! neighborhoods, hands them to an external model (PyTorch / JAX via
//! ML-IAP), and chains the returned descriptor gradients into forces.
//! [`PairMliap`] is that driver: it is generic over
//!
//! * a [`DescriptorSet`] — per-atom neighborhood featurization with an
//!   analytic chain rule, and
//! * an [`MlModel`] — `E_i = model(descriptors)` with
//!   `∂E_i/∂descriptor` (what autodiff frameworks return).
//!
//! Provided instances: Behler-Parrinello radial symmetry functions
//! ([`RadialSymmetry`]) and a small tanh multilayer perceptron
//! ([`Mlp`]) standing in for the external framework. Forces are exact
//! gradients (finite-difference verified), and the energy is invariant
//! under rotations by construction of the descriptors.

use crate::atom::Mask;
use crate::neighbor::{NeighborList, TOWARD_J};
use crate::pair::scratch::with_neigh_scratch;
use crate::pair::{ForceScatter, PairResults, PairStyle, Tally};
use crate::sim::System;
use crate::switch::cubic_switch;
use lkk_gpusim::KernelStats;

/// Per-atom neighborhood featurization with an analytic chain rule.
pub trait DescriptorSet: Send + Sync {
    fn n_descriptors(&self) -> usize;
    fn cutoff(&self) -> f64;
    /// Fill `desc` (length `n_descriptors`) from relative neighbor
    /// positions.
    fn compute(&self, neigh: &[[f64; 3]], desc: &mut [f64]);
    /// Chain rule: given `∂E/∂desc`, `∂E/∂x` of the neighbor at
    /// relative position `d3`.
    fn chain(&self, d3: [f64; 3], dedd: &[f64]) -> [f64; 3];
}

/// An energy model over descriptors (the "external framework" side).
pub trait MlModel: Send + Sync {
    /// Per-atom energy and `∂E/∂descriptor` (written into `grad`).
    fn forward(&self, desc: &[f64], grad: &mut [f64]) -> f64;
}

/// Behler-Parrinello radial symmetry functions:
/// `G_k = Σ_j exp(−η (r_j − μ_k)²) · fc(r_j)`.
#[derive(Debug, Clone)]
pub struct RadialSymmetry {
    pub mus: Vec<f64>,
    pub eta: f64,
    pub rcut: f64,
}

impl RadialSymmetry {
    /// `n` Gaussian centers spread over `(0.8, rcut)`.
    pub fn new(n: usize, eta: f64, rcut: f64) -> Self {
        let mus = (0..n)
            .map(|k| 0.8 + (rcut - 0.8) * (k as f64 + 0.5) / n as f64)
            .collect();
        RadialSymmetry { mus, eta, rcut }
    }

    #[inline]
    fn fc(&self, r: f64) -> (f64, f64) {
        cubic_switch(r, 0.7 * self.rcut, self.rcut)
    }
}

impl DescriptorSet for RadialSymmetry {
    fn n_descriptors(&self) -> usize {
        self.mus.len()
    }

    fn cutoff(&self) -> f64 {
        self.rcut
    }

    fn compute(&self, neigh: &[[f64; 3]], desc: &mut [f64]) {
        desc.iter_mut().for_each(|d| *d = 0.0);
        for d3 in neigh {
            let r = (d3[0] * d3[0] + d3[1] * d3[1] + d3[2] * d3[2]).sqrt();
            if r >= self.rcut {
                continue;
            }
            let (fc, _) = self.fc(r);
            for (k, &mu) in self.mus.iter().enumerate() {
                desc[k] += (-self.eta * (r - mu) * (r - mu)).exp() * fc;
            }
        }
    }

    fn chain(&self, d3: [f64; 3], dedd: &[f64]) -> [f64; 3] {
        let rsq = d3[0] * d3[0] + d3[1] * d3[1] + d3[2] * d3[2];
        let r = rsq.sqrt();
        if r >= self.rcut {
            return [0.0; 3];
        }
        let (fc, dfc) = self.fc(r);
        // dG_k/dr, then ∂r/∂x = x/r.
        let mut dedr = 0.0;
        for (k, &mu) in self.mus.iter().enumerate() {
            let g = (-self.eta * (r - mu) * (r - mu)).exp();
            let dg = -2.0 * self.eta * (r - mu) * g;
            dedr += dedd[k] * (dg * fc + g * dfc);
        }
        [dedr * d3[0] / r, dedr * d3[1] / r, dedr * d3[2] / r]
    }
}

/// A single-hidden-layer tanh perceptron with analytic input gradients
/// (standing in for libtorch/JAX autodiff; Appendix A).
#[derive(Debug, Clone)]
pub struct Mlp {
    pub n_in: usize,
    pub n_hidden: usize,
    /// `w1[h * n_in + i]`, `b1[h]`, `w2[h]`, `b2`.
    pub w1: Vec<f64>,
    pub b1: Vec<f64>,
    pub w2: Vec<f64>,
    pub b2: f64,
}

impl Mlp {
    /// Deterministic pseudo-random weights at sane magnitudes.
    pub fn synthetic(n_in: usize, n_hidden: usize, seed: u64) -> Self {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.8
        };
        Mlp {
            n_in,
            n_hidden,
            w1: (0..n_in * n_hidden).map(|_| next()).collect(),
            b1: (0..n_hidden).map(|_| next()).collect(),
            w2: (0..n_hidden).map(|_| next() * 0.2).collect(),
            b2: next(),
        }
    }
}

impl MlModel for Mlp {
    fn forward(&self, desc: &[f64], grad: &mut [f64]) -> f64 {
        debug_assert_eq!(desc.len(), self.n_in);
        grad.iter_mut().for_each(|g| *g = 0.0);
        let mut e = self.b2;
        for h in 0..self.n_hidden {
            let mut z = self.b1[h];
            for (i, &di) in desc.iter().enumerate() {
                z += self.w1[h * self.n_in + i] * di;
            }
            let t = z.tanh();
            e += self.w2[h] * t;
            let dt = self.w2[h] * (1.0 - t * t);
            for (i, gi) in grad.iter_mut().enumerate() {
                *gi += dt * self.w1[h * self.n_in + i];
            }
        }
        e
    }
}

/// The generic ML-IAP pair style.
pub struct PairMliap<D: DescriptorSet + 'static, M: MlModel + 'static> {
    pub descriptors: D,
    pub model: M,
    name: String,
    scatter: ForceScatter,
}

impl<D: DescriptorSet + 'static, M: MlModel + 'static> PairMliap<D, M> {
    pub fn new(descriptors: D, model: M) -> Self {
        PairMliap {
            descriptors,
            model,
            name: "mliap".into(),
            scatter: ForceScatter::default(),
        }
    }
}

impl<D: DescriptorSet + 'static, M: MlModel + 'static> PairStyle for PairMliap<D, M> {
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
        self.descriptors.cutoff()
    }

    fn wants_half_list(&self) -> bool {
        false
    }

    fn needs_reverse_comm(&self) -> bool {
        true // forces scatter onto ghost neighbors
    }

    fn scatter_grow_count(&self) -> u64 {
        self.scatter.grow_count()
    }

    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults {
        let space = system.space.clone();
        system.atoms.sync(&space, Mask::X | Mask::TYPE);
        let nlocal = system.atoms.nlocal;
        self.scatter.ensure(system.atoms.nall(), &space);
        let desc_set = &self.descriptors;
        let model = &self.model;
        let nd = desc_set.n_descriptors();
        let walk = list.within(system.atoms.x.view_for(&space), desc_set.cutoff());
        let tally = space.parallel_reduce_parts(
            "PairMliapCompute",
            nlocal,
            self.scatter.parts(),
            Tally::default(),
            |i, forces| {
                with_neigh_scratch(|sc| {
                    walk.row::<TOWARD_J>(i, |j, d, _| {
                        sc.rel.push(d);
                        sc.ids.push(j);
                    });
                    // Descriptor/gradient slots live in the same scratch;
                    // `resize` after `clear` zero-fills without realloc in
                    // steady state (`tests/alloc_gate.rs`).
                    sc.a.resize(nd, 0.0);
                    sc.b.resize(nd, 0.0);
                    let (rel, ids, desc, grad) = (&sc.rel, &sc.ids, &mut sc.a, &mut sc.b);
                    desc_set.compute(rel, desc);
                    let mut tally = Tally {
                        e: model.forward(desc, grad),
                        ..Tally::default()
                    };
                    for (k, &j) in ids.iter().enumerate() {
                        let dedx = desc_set.chain(rel[k], grad);
                        let f = [-dedx[0], -dedx[1], -dedx[2]];
                        forces.add3(j, f);
                        forces.add3(i, [-f[0], -f[1], -f[2]]);
                        if eflag {
                            // d = x_j − x_i, f the force on j.
                            tally.add_leg(rel[k], f);
                        }
                    }
                    tally
                })
            },
            Tally::join,
        );
        self.scatter.contribute(system);
        if space.is_device() {
            let mut k = KernelStats::new("PairMliapCompute");
            k.work_items = nlocal as f64;
            k.flops = nlocal as f64 * (nd as f64 * 40.0 + list.avg_neighbors() * nd as f64 * 10.0);
            k.dram_bytes = nlocal as f64 * (nd as f64 * 8.0 + 48.0);
            space.note_kernel(k);
        }
        tally.results(eflag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomData;
    use crate::comm::build_ghosts;
    use crate::domain::Domain;
    use crate::lattice::{Lattice, LatticeKind};
    use crate::neighbor::NeighborSettings;
    use crate::sim::Simulation;
    use lkk_kokkos::Space;

    fn style() -> PairMliap<RadialSymmetry, Mlp> {
        let desc = RadialSymmetry::new(8, 2.0, 4.0);
        let model = Mlp::synthetic(8, 12, 99);
        PairMliap::new(desc, model)
    }

    fn setup(perturb: f64) -> (System, NeighborList) {
        let lat = Lattice::new(LatticeKind::Fcc, 3.0);
        let positions: Vec<[f64; 3]> = lat
            .positions(3, 3, 3)
            .iter()
            .enumerate()
            .map(|(i, p)| {
                [
                    p[0] + perturb * (((i * 7) % 13) as f64 / 13.0 - 0.5),
                    p[1] + perturb * (((i * 11) % 17) as f64 / 17.0 - 0.5),
                    p[2] + perturb * (((i * 5) % 19) as f64 / 19.0 - 0.5),
                ]
            })
            .collect();
        let atoms = AtomData::from_positions(&positions);
        let space = Space::Serial;
        let mut system = System::new(atoms, lat.domain(3, 3, 3), space.clone());
        let settings = NeighborSettings::new(4.0, 0.3, false);
        system.atoms.wrap_positions(&system.domain);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        (system, list)
    }

    #[test]
    fn mlp_gradient_matches_fd() {
        let m = Mlp::synthetic(6, 10, 3);
        let desc: Vec<f64> = (0..6).map(|i| 0.3 * i as f64 - 0.7).collect();
        let mut grad = vec![0.0; 6];
        m.forward(&desc, &mut grad);
        let h = 1e-6;
        for k in 0..6 {
            let mut dp = desc.clone();
            let mut dm = desc.clone();
            dp[k] += h;
            dm[k] -= h;
            let mut g = vec![0.0; 6];
            let fd = (m.forward(&dp, &mut g) - m.forward(&dm, &mut g)) / (2.0 * h);
            assert!((grad[k] - fd).abs() < 1e-8, "k={k}");
        }
    }

    #[test]
    fn descriptors_are_rotation_invariant() {
        let d = RadialSymmetry::new(8, 2.0, 4.0);
        let neigh = vec![[1.0, 0.5, -0.3], [-2.0, 1.0, 0.7], [0.2, -1.8, 2.2]];
        let mut a = vec![0.0; 8];
        d.compute(&neigh, &mut a);
        // Rotate 90° about z.
        let rotated: Vec<[f64; 3]> = neigh.iter().map(|v| [-v[1], v[0], v[2]]).collect();
        let mut b = vec![0.0; 8];
        d.compute(&rotated, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
        assert!(a.iter().any(|&x| x > 1e-3));
    }

    #[test]
    fn forces_match_finite_difference() {
        let (mut system, list) = setup(0.15);
        let mut pair = style();
        let _ = pair.compute(&mut system, &list, true);
        system.atoms.sync(&Space::Serial, Mask::F);
        crate::comm::reverse_forces(&mut system.atoms, &system.ghosts);
        let fh = system.atoms.f.h_view();
        let f0: Vec<[f64; 3]> = (0..system.atoms.nlocal)
            .map(|i| [fh.at([i, 0]), fh.at([i, 1]), fh.at([i, 2])])
            .collect();
        let energy_of = |a: usize, k: usize, dh: f64| -> f64 {
            let (mut sys2, _) = setup(0.15);
            let v = sys2.atoms.x.h_view().at([a, k]) + dh;
            sys2.atoms.x.h_view_mut().set([a, k], v);
            let settings = NeighborSettings::new(4.0, 0.3, false);
            sys2.atoms.wrap_positions(&sys2.domain);
            sys2.ghosts = build_ghosts(&mut sys2.atoms, &sys2.domain, settings.cutneigh());
            let list2 = NeighborList::build(&sys2.atoms, &sys2.domain, &settings, &Space::Serial);
            let mut p2 = style();
            p2.compute(&mut sys2, &list2, true).energy
        };
        let h = 1e-6;
        for &a in &[0usize, 17] {
            for (k, &f) in f0[a].iter().enumerate() {
                let fd = -(energy_of(a, k, h) - energy_of(a, k, -h)) / (2.0 * h);
                assert!(
                    (f - fd).abs() < 1e-6 * fd.abs().max(1e-3),
                    "atom {a} dir {k}: {f} vs {fd}"
                );
            }
        }
    }

    #[test]
    fn total_force_is_zero() {
        let (mut system, list) = setup(0.2);
        let mut pair = style();
        let _ = pair.compute(&mut system, &list, true);
        system.atoms.sync(&Space::Serial, Mask::F);
        crate::comm::reverse_forces(&mut system.atoms, &system.ghosts);
        let fh = system.atoms.f.h_view();
        for k in 0..3 {
            let tot: f64 = (0..system.atoms.nlocal).map(|i| fh.at([i, k])).sum();
            assert!(tot.abs() < 1e-9, "net force {tot}");
        }
    }

    /// `eflag` off skips the virial tally and nothing else: same forces
    /// to the bit on every space, default results.
    #[test]
    fn eflag_off_changes_no_force_bit() {
        for space in [
            Space::Serial,
            Space::Threads,
            Space::device(lkk_gpusim::GpuArch::h100()),
        ] {
            let forces_with = |eflag: bool| {
                let (mut system, list) = setup(0.2);
                system.space = space.clone();
                let res = style().compute(&mut system, &list, eflag);
                system.atoms.sync(&Space::Serial, Mask::F);
                let fh = system.atoms.f.h_view();
                let bits: Vec<u64> = (0..system.atoms.nall() * 3)
                    .map(|n| fh.at([n / 3, n % 3]).to_bits())
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
    fn domain_unused_guard() {
        // Silence unused import in non-test builds if any.
        let _ = Domain::cubic(1.0);
    }

    /// The perturbed 3×3×3 cell under `Simulation`, thermal velocities.
    fn simulation(space: Space) -> Simulation {
        let (mut system, _) = setup(0.15);
        system.space = space;
        crate::lattice::create_velocities(&mut system.atoms, &system.units, 0.02, 2718);
        let mut sim = Simulation::new(system, Box::new(style()));
        sim.dt = 0.005;
        sim
    }

    /// Through `Simulation` the style's ghost forces are folded back onto
    /// their owners (it scatters onto ghost neighbors, so it must ask for
    /// reverse communication): no force is left on a ghost row and the
    /// owned forces sum to zero.
    #[test]
    fn simulation_folds_ghost_forces_back() {
        for space in [Space::Serial, Space::Threads] {
            let mut sim = simulation(space);
            sim.setup();
            let atoms = &mut sim.system.atoms;
            atoms.sync(&Space::Serial, Mask::F);
            let fh = atoms.f.h_view();
            assert!(atoms.nghost > 0);
            for g in atoms.nlocal..atoms.nall() {
                assert_eq!(fh.get3(g), [0.0; 3], "ghost row {g}");
            }
            for k in 0..3 {
                let net: f64 = (0..atoms.nlocal).map(|i| fh.at([i, k])).sum();
                assert!(net.abs() < 1e-9, "net owned force [{k}] = {net:e}");
            }
        }
    }

    /// The half-mean drift bound of `sim::tests::nve_conserves_energy`,
    /// over 200 steps.
    #[test]
    fn nve_conserves_energy() {
        let mut sim = simulation(Space::Threads);
        sim.setup();
        let n = sim.system.atoms.nlocal as f64;
        let mut half_mean = [0.0f64; 2];
        for block in 0..10 {
            sim.run(20);
            half_mean[block / 5] += sim.total_energy() / 5.0;
        }
        let drift = ((half_mean[1] - half_mean[0]) / n).abs();
        assert!(drift < 1e-4, "per-atom secular drift {drift}");
        assert!(
            sim.rebuild_count > 0,
            "no rebuild: the ghost fold was tested once"
        );
    }

    #[test]
    fn scatter_view_is_reused_when_the_ghost_count_moves() {
        let lat = Lattice::new(LatticeKind::Fcc, 3.0);
        let pos = lat.positions(3, 3, 3);
        // Half a length unit along x moves a lattice plane inside the
        // ghost cutoff.
        let shifted: Vec<[f64; 3]> = pos.iter().map(|p| [p[0] + 0.5, p[1], p[2]]).collect();
        let domain = lat.domain(3, 3, 3);
        crate::pair::tests::assert_scatter_pool_is_reused(&mut style(), &pos, &shifted, domain);
    }
}
