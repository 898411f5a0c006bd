//! `pair_style reaxff`: the assembled reactive force field.
//!
//! Per-timestep pipeline (the §4.2 kernel inventory):
//!
//! 1. **BondOrderBuild** — divergent pre-processing of the long
//!    non-bonded list into the compressed 2-D bond table.
//! 2. **QEqMatrixBuild** + fused dual-CG **QEqSpmvFused** solves → q.
//!    The fill evaluates each non-bonded pair once and stores one
//!    triangle of the symmetric matrix; the SpMV adds the other.
//! 3. Bond + over-coordination energies (fills `∂E/∂BO`, `∂E/∂Δ`).
//! 4. **Angle/Torsion count → scan → fill → compute** — the compressed
//!    triplet/quad tables and their fully convergent kernels.
//! 5. **BondForces** — propagate the `∂E/∂BO` chains to atom forces.
//! 6. **NonbondedCompute** — tapered vdW + shielded Coulomb with the
//!    equilibrated charges, each pair once, both of its forces through
//!    a `ScatterView`.
//!
//! All forces accumulate onto *owner* rows, so no reverse ghost
//! communication is needed. Every per-step table (bond table and bond
//! orders, triplet and quad tables, QEq matrix, CG vectors, scatters)
//! is a pooled workspace of the style, refilled in place.

use crate::angles::{compute_angles, TripletTable};
use crate::bond_order::BondState;
use crate::ensure_len;
use crate::nonbonded::{compute_nonbonded, PairTable};
use crate::params::ReaxParams;
use crate::qeq::{self, ChargeHistory, QeqMatrix, QeqWork};
use crate::torsion::{compute_torsions, QuadStats, QuadTable};
use lkk_core::atom::Mask;
use lkk_core::neighbor::NeighborList;
use lkk_core::pair::{PairResults, PairStyle};
use lkk_core::sim::System;
use lkk_core::style::{PairSpec, StyleRegistry};
use lkk_gpusim::KernelStats;
use lkk_kokkos::{profile, ScatterMode, ScatterView, Space};

/// Join the active region path with a ReaxFF pipeline phase name, for
/// tagging stats records that are pushed after the phase region closed.
fn phase_region(phase: &str) -> String {
    let base = profile::current_region();
    if base.is_empty() {
        phase.to_string()
    } else {
        format!("{base}/{phase}")
    }
}

/// The ReaxFF pair style.
///
/// Besides the parameters it owns what a step reuses from the one
/// before: the bond state, the triplet and quad tables, the QEq matrix,
/// the CG vectors, `chi`, the force accumulator and the non-bonded
/// force scatter (one workspace, grown never shrunk — see
/// [`PairReaxff::grow_count`]), and the [`ChargeHistory`] the next
/// solve's initial guess is extrapolated from.
pub struct PairReaxff {
    /// Read-only after [`PairReaxff::new`], which mixes the pair-term
    /// table from it.
    pub params: ReaxParams,
    name: String,
    /// Diagnostics from the last compute.
    pub last_qeq_iterations: usize,
    pub last_quad_stats: QuadStats,
    pub last_charges: Vec<f64>,
    pub last_bond_count: u64,
    table: PairTable,
    bonds: BondState,
    triplets: TripletTable,
    quads: QuadTable,
    matrix: QeqMatrix,
    cg: QeqWork,
    history: ChargeHistory,
    chi: Vec<f64>,
    forces: Vec<[f64; 3]>,
    scatter: ScatterView,
    grow_count: u64,
}

impl PairReaxff {
    pub fn new(params: ReaxParams) -> Self {
        PairReaxff {
            table: PairTable::new(&params),
            params,
            name: "reaxff".into(),
            last_qeq_iterations: 0,
            last_quad_stats: QuadStats::default(),
            last_charges: Vec::new(),
            last_bond_count: 0,
            bonds: BondState::default(),
            triplets: TripletTable::default(),
            quads: QuadTable::default(),
            matrix: QeqMatrix::default(),
            cg: QeqWork::default(),
            history: ChargeHistory::default(),
            chi: Vec::new(),
            forces: Vec::new(),
            scatter: ScatterView::new(0, 3, ScatterMode::Sequential),
            grow_count: 0,
        }
    }

    /// Heap growths of the pooled workspace (bond state, triplet and
    /// quad tables, QEq matrix and its scatter, CG vectors, charge
    /// history, `chi`, forces and their scatter) since construction:
    /// flat once the first computes have sized it, like
    /// `NeighborList::grow_count`.
    pub fn grow_count(&self) -> u64 {
        self.grow_count + self.scatter_grow_count()
    }

    /// Register `reaxff` / `reaxff/kk`. `pair_style reaxff` takes no
    /// arguments; the HNS-like parameterization is built in.
    pub fn register(registry: &mut StyleRegistry) {
        registry.register_pair("reaxff", |_spec: &PairSpec, _space: &Space| {
            Ok(Box::new(PairReaxff::new(ReaxParams::hns_like())))
        });
    }

    fn note_stats(
        &self,
        space: &Space,
        nlocal: f64,
        bond_count: f64,
        quad_stats: &QuadStats,
        nnz: f64,
        cg_iters: f64,
    ) {
        if !space.is_device() {
            return;
        }
        // Bond-order build: divergent scan of the long neighbor list.
        let mut bo = KernelStats::new("BondOrderBuild");
        bo.region = phase_region("bond_order");
        bo.work_items = nlocal;
        bo.flops = bond_count * 60.0 + nlocal * 30.0;
        bo.dram_bytes = nlocal * 200.0 + bond_count * 60.0;
        bo.convergence = 0.2; // most candidates fail the r/BO tests
        space.note_kernel(bo);

        // Torsion pre-processing: cheap but very divergent.
        let mut tp = KernelStats::new("TorsionCountFill");
        tp.region = phase_region("valence");
        tp.work_items = quad_stats.candidates as f64;
        tp.flops = quad_stats.candidates as f64 * 8.0;
        tp.dram_bytes = quad_stats.candidates as f64 * 24.0 + quad_stats.kept as f64 * 16.0;
        tp.convergence =
            (quad_stats.kept as f64 / quad_stats.candidates.max(1) as f64).clamp(0.02, 1.0);
        tp.launches = 2.0;
        space.note_kernel(tp);

        // Torsion compute: fully convergent on the compressed table.
        let mut tc = KernelStats::new("TorsionCompute");
        tc.region = phase_region("valence");
        tc.work_items = quad_stats.kept as f64;
        tc.flops = quad_stats.kept as f64 * 250.0;
        tc.dram_bytes = quad_stats.kept as f64 * 96.0;
        tc.atomic_f64_ops = quad_stats.kept as f64 * 15.0;
        tc.convergence = 1.0;
        space.note_kernel(tc);

        // The paper's QEq kernels store and walk the full matrix: twice
        // the one triangle stored here.
        let nnz = 2.0 * nnz;

        // QEq matrix build (hierarchical row parallelism on device).
        let mut qb = KernelStats::new("QEqMatrixBuild");
        qb.region = phase_region("qeq");
        qb.work_items = nnz;
        qb.flops = nnz * 40.0;
        qb.dram_bytes = nnz * 40.0 + nlocal * 40.0;
        space.note_kernel(qb);

        // Fused dual SpMV per CG iteration: bandwidth bound on the
        // matrix values (§4.2.3).
        let mut sp = KernelStats::new("QEqSpmvFused");
        sp.region = phase_region("qeq");
        sp.work_items = nnz;
        sp.flops = cg_iters * nnz * 4.0;
        sp.dram_bytes = cg_iters * nnz * 12.0;
        sp.launches = cg_iters.max(1.0);
        sp.ilp = 2.0; // two right-hand sides per matrix load
        space.note_kernel(sp);

        // Non-bonded force kernel.
        let mut nb = KernelStats::new("NonbondedCompute");
        nb.region = phase_region("nonbonded");
        nb.work_items = nlocal;
        nb.flops = nnz * 2.0 * 60.0;
        nb.dram_bytes = nlocal * 48.0 + nnz * 2.0 * 28.0;
        nb.reused_bytes = nnz * 2.0 * 24.0;
        nb.working_set_bytes = 64.0 * 1024.0;
        space.note_kernel(nb);
    }
}

impl PairStyle for PairReaxff {
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
        self.params.r_nonb
    }

    fn wants_half_list(&self) -> bool {
        false
    }

    fn needs_reverse_comm(&self) -> bool {
        false // all scatters land on owner rows
    }

    fn scatter_grow_count(&self) -> u64 {
        self.scatter.grow_count() + self.matrix.scatter_grow_count()
    }

    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults {
        let space = system.space.clone();
        // The ReaxFF pipeline reads host mirrors (kernels dispatch
        // through `space` for parallelism + launch accounting).
        system
            .atoms
            .sync(&Space::Serial, Mask::X | Mask::TYPE | Mask::TAG);
        let nlocal = system.atoms.nlocal;
        let params = &self.params;

        // 1. Bond table + bond orders.
        let bo_region = profile::begin_region("bond_order");
        let mut grown = self
            .bonds
            .build(&system.atoms, list, &system.ghosts, params, &space);
        self.last_bond_count = self.bonds.table.total_bonds();
        drop(bo_region);

        // 2. Charge equilibration, warm-started from the history of the
        //    atoms that are here now.
        let qeq_region = profile::begin_region("qeq");
        grown += self.matrix.build(
            &system.atoms,
            list,
            &system.ghosts,
            params,
            &self.table,
            &space,
        );
        let typ = &system.atoms.typ.h_view().as_slice()[..nlocal];
        let tags = &system.atoms.tag.h_view().as_slice()[..nlocal];
        grown += ensure_len(&mut self.chi, nlocal);
        for (chi, &t) in self.chi.iter_mut().zip(typ) {
            *chi = params.elements[t as usize].chi;
        }
        grown += self.cg.reset(nlocal);
        self.history.follow(tags);
        self.history.guess(&mut self.cg.s, &mut self.cg.t);
        let sol = qeq::solve(
            &mut self.matrix,
            &self.chi,
            &mut self.cg,
            params.qeq_tol,
            eflag,
            &space,
        );
        self.last_qeq_iterations = sol.iterations;
        assert!(
            sol.converged,
            "reaxff: QEq did not converge in region '{}': {} CG iterations, \
             relative residuals {:e} (s) and {:e} (t), tolerance {:e}",
            profile::current_region(),
            sol.iterations,
            sol.residuals[0],
            sol.residuals[1],
            params.qeq_tol,
        );
        grown += self.history.push(tags, &self.cg.s, &self.cg.t);
        let q = &self.cg.q;
        drop(qeq_region);

        grown += ensure_len(&mut self.forces, nlocal);
        self.forces.fill([0.0; 3]);
        let forces = &mut self.forces[..];
        let state = &mut self.bonds;
        let mut energy = 0.0;
        let mut virial = 0.0;

        // 3. Bond + over-coordination energy (coefficients only).
        energy += state.bonded_energy(params, &system.atoms);

        // 4. Angles and torsions.
        let valence_region = profile::begin_region("valence");
        grown += self.triplets.build(state, params, &space);
        let (e_ang, w_ang) = compute_angles(&self.triplets.triplets, state, params, forces, &space);
        energy += e_ang;
        virial += w_ang;
        grown += self.quads.build(state, params, &space);
        self.last_quad_stats = self.quads.stats;
        let (e_tor, w_tor) = compute_torsions(&self.quads.quads, state, params, forces, &space);
        energy += e_tor;
        virial += w_tor;
        drop(valence_region);

        // 5. Bond-order force chains.
        virial += state.accumulate_forces(forces);

        // 6. Non-bonded (vdW + Coulomb at the equilibrated charges) and,
        //    with `eflag`, the electrostatic self energy χ·q + η·q².
        let nonbonded_region = profile::begin_region("nonbonded");
        let (e_vdw, e_coul, w_nb) = compute_nonbonded(
            &system.atoms,
            list,
            &system.ghosts,
            q,
            &self.table,
            &mut self.scatter,
            forces,
            eflag,
            &space,
        );
        energy += e_vdw + e_coul;
        virial += w_nb;
        drop(nonbonded_region);
        if eflag {
            for ((&chi, &t), &qi) in self.chi.iter().zip(typ).zip(q) {
                energy += chi * qi + params.elements[t as usize].eta * qi * qi;
            }
        }
        self.grow_count += grown;

        // Store charges back on the atoms (observable state) and
        // publish forces to the engine's force field (ghost rows zero).
        system.atoms.q.h_view_mut().as_mut_slice()[..nlocal].copy_from_slice(q);
        let (owned, ghost) = system
            .atoms
            .f
            .h_view_mut()
            .as_mut_slice()
            .split_at_mut(3 * nlocal);
        for (row, f) in owned.chunks_exact_mut(3).zip(&*forces) {
            row.copy_from_slice(f);
        }
        ghost.fill(0.0);
        system.atoms.modified(&Space::Serial, Mask::F | Mask::Q);
        // `last_charges` takes the buffer the charges are in; the one
        // handed back is re-sized by the next `reset`.
        std::mem::swap(&mut self.last_charges, &mut self.cg.q);

        self.note_stats(
            &space,
            nlocal as f64,
            self.last_bond_count as f64,
            &self.last_quad_stats,
            self.matrix.total_nnz() as f64,
            self.last_qeq_iterations as f64,
        );
        if !eflag {
            return PairResults::default();
        }
        // The many-body BO chains make per-component accumulation
        // intricate; ReaxFF reports the isotropic virial (trace) only.
        PairResults::isotropic(energy, virial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hns;
    use lkk_core::atom::AtomData;
    use lkk_core::comm::build_ghosts;
    use lkk_core::lattice::create_velocities;
    use lkk_core::neighbor::NeighborSettings;
    use lkk_core::sim::Simulation;
    use lkk_core::units::Units;

    fn hns_system(nx: usize, space: Space) -> System {
        let (pos, types, domain) = hns::crystal(nx, nx, nx, 17.0);
        let mut atoms = AtomData::from_positions(&pos);
        atoms.mass = vec![12.0, 1.0, 14.0, 16.0];
        for (i, &t) in types.iter().enumerate() {
            atoms.typ.h_view_mut().set([i], t);
        }
        System::new(atoms, domain, space).with_units(Units::metal())
    }

    fn run_compute(system: &mut System, pair: &mut PairReaxff) -> (Vec<[f64; 3]>, PairResults) {
        run_compute_with(system, pair, true)
    }

    fn run_compute_with(
        system: &mut System,
        pair: &mut PairReaxff,
        eflag: bool,
    ) -> (Vec<[f64; 3]>, PairResults) {
        let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
        let space = system.space.clone();
        system.atoms.wrap_positions(&system.domain);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        let res = pair.compute(system, &list, eflag);
        let fh = system.atoms.f.h_view();
        let forces = (0..system.atoms.nlocal)
            .map(|i| [fh.at([i, 0]), fh.at([i, 1]), fh.at([i, 2])])
            .collect();
        (forces, res)
    }

    #[test]
    fn hns_crystal_has_bonds_angles_and_quads() {
        let mut system = hns_system(1, Space::Serial);
        let mut pair = PairReaxff::new(ReaxParams::hns_like());
        let (_, res) = run_compute(&mut system, &mut pair);
        assert!(pair.last_bond_count > 0, "no bonds found");
        assert!(pair.last_quad_stats.kept > 0, "no torsions found");
        // The selectivity constraint: well under half the candidates.
        let sel = pair.last_quad_stats.kept as f64 / pair.last_quad_stats.candidates as f64;
        assert!(sel < 0.5, "quad selectivity {sel}");
        assert!(pair.last_qeq_iterations > 0);
        assert!(res.energy.is_finite());
        // Charges: oxygens negative on average.
        let typ = system.atoms.typ.h_view();
        let mut o_sum = 0.0;
        let mut o_count = 0;
        for i in 0..system.atoms.nlocal {
            if typ.at([i]) == hns::TYPE_O {
                o_sum += pair.last_charges[i];
                o_count += 1;
            }
        }
        assert!(
            o_sum / (o_count as f64) < 0.0,
            "O mean charge {}",
            o_sum / o_count as f64
        );
        // Net neutral.
        assert!(pair.last_charges.iter().sum::<f64>().abs() < 1e-8);
    }

    #[test]
    fn total_force_is_zero() {
        let mut system = hns_system(1, Space::Threads);
        let mut pair = PairReaxff::new(ReaxParams::hns_like());
        let (forces, _) = run_compute(&mut system, &mut pair);
        for k in 0..3 {
            let total: f64 = forces.iter().map(|f| f[k]).sum();
            assert!(total.abs() < 1e-7, "net force {total}");
        }
        assert!(forces.iter().any(|f| f[0].abs() > 1e-3));
    }

    /// The decisive correctness test: analytic forces (through bond
    /// orders, the over-coordination chain, angles, torsions, QEq
    /// charges, vdW and Coulomb) match finite differences of the total
    /// energy.
    #[test]
    fn forces_match_finite_difference_of_total_energy() {
        let (pos, types, domain) = hns::crystal(1, 1, 1, 17.0);
        let energy_of = |positions: &[[f64; 3]]| -> f64 {
            let mut atoms = AtomData::from_positions(positions);
            atoms.mass = vec![12.0, 1.0, 14.0, 16.0];
            for (i, &t) in types.iter().enumerate() {
                atoms.typ.h_view_mut().set([i], t);
            }
            let mut system = System::new(atoms, domain, Space::Serial);
            let mut pair = PairReaxff::new(ReaxParams::hns_like());
            let (_, res) = run_compute(&mut system, &mut pair);
            res.energy
        };
        let mut system = hns_system(1, Space::Serial);
        let mut pair = PairReaxff::new(ReaxParams::hns_like());
        let (forces, _) = run_compute(&mut system, &mut pair);
        let h = 1e-5;
        // Spot-check a carbon, a nitrogen, and an oxygen.
        for &a in &[0usize, 3, 4] {
            for dir in 0..3 {
                let mut pp = pos.clone();
                let mut pm = pos.clone();
                pp[a][dir] += h;
                pm[a][dir] -= h;
                let fd = -(energy_of(&pp) - energy_of(&pm)) / (2.0 * h);
                assert!(
                    (forces[a][dir] - fd).abs() < 2e-4 * fd.abs().max(1.0),
                    "atom {a} dir {dir}: analytic {} vs fd {fd}",
                    forces[a][dir]
                );
            }
        }
    }

    #[test]
    fn spaces_agree() {
        let mut reference: Option<(Vec<[f64; 3]>, f64)> = None;
        for space in [
            Space::Serial,
            Space::Threads,
            Space::device(lkk_gpusim::GpuArch::h100()),
        ] {
            let mut system = hns_system(1, space);
            let mut pair = PairReaxff::new(ReaxParams::hns_like());
            let (forces, res) = run_compute(&mut system, &mut pair);
            match &reference {
                None => reference = Some((forces, res.energy)),
                Some((rf, re)) => {
                    assert!((res.energy - re).abs() < 1e-8 * re.abs().max(1.0));
                    for (a, b) in forces.iter().zip(rf) {
                        for k in 0..3 {
                            assert!((a[k] - b[k]).abs() < 1e-7, "{} vs {}", a[k], b[k]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn device_logs_reaxff_kernels() {
        let space = Space::device(lkk_gpusim::GpuArch::h100());
        let ctx = space.device_ctx().unwrap().clone();
        let mut system = hns_system(1, space);
        let mut pair = PairReaxff::new(ReaxParams::hns_like());
        let _ = run_compute(&mut system, &mut pair);
        let agg = ctx.log.aggregate();
        for name in [
            "BondOrderBuild",
            "TorsionCountFill",
            "TorsionCompute",
            "QEqMatrixBuild",
            "QEqSpmvFused",
            "NonbondedCompute",
        ] {
            assert!(
                agg.iter().any(|s| s.name == name),
                "{name} not logged; have {:?}",
                agg.iter().map(|s| &s.name).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn nve_with_reaxff_conserves_energy() {
        let mut system = hns_system(1, Space::Threads);
        create_velocities(&mut system.atoms, &Units::metal(), 300.0, 4242);
        let pair = PairReaxff::new(ReaxParams::hns_like());
        let mut sim = Simulation::new(system, Box::new(pair));
        sim.dt = 0.0002; // reactive systems need short steps
        sim.setup();
        let e0 = sim.total_energy();
        sim.run(25);
        let drift = ((sim.total_energy() - e0) / sim.system.atoms.nlocal as f64).abs();
        assert!(drift < 5e-4, "per-atom drift {drift}");
    }

    #[test]
    fn registry_integration() {
        let mut reg = StyleRegistry::core();
        PairReaxff::register(&mut reg);
        let spec = PairSpec::default();
        let p = reg
            .create_pair("reaxff", &spec, &Space::Threads, Some("kk"))
            .unwrap();
        assert_eq!(p.name(), "reaxff/kk");
        assert!(!p.wants_half_list());
    }

    #[test]
    fn bond_breaking_is_continuous() {
        // Stretch a C-C dimer through the bond cutoff: the energy must
        // be continuous (no jump when the pair leaves the bond table)
        // and must approach the pure non-bonded value beyond r_bond.
        // This is the "reactive" property: bonds break smoothly.
        let params = ReaxParams::single_element();
        let energy_at = |r: f64| -> f64 {
            let mut atoms = AtomData::from_positions(&[[9.0, 9.0, 9.0], [9.0 + r, 9.0, 9.0]]);
            atoms.mass = vec![12.0];
            let mut system =
                System::new(atoms, lkk_core::domain::Domain::cubic(18.0), Space::Serial)
                    .with_units(Units::metal());
            let mut pair = PairReaxff::new(params.clone());
            let (_, res) = run_compute(&mut system, &mut pair);
            res.energy
        };
        // Scan across the r_bond = 3.0 Å crossing.
        let mut prev = energy_at(2.5);
        let mut r = 2.5;
        while r < 3.3 {
            r += 0.01;
            let e = energy_at(r);
            assert!(
                (e - prev).abs() < 0.05,
                "energy jump at r = {r}: {prev} -> {e}"
            );
            prev = e;
        }
        // Past the cutoff the bonded terms are gone: the dimer energy
        // equals vdW + electrostatics only (both atoms identical ⇒
        // q = 0 ⇒ just vdW + any residual over-coordination constant).
        let e_far = energy_at(3.2);
        let vdw_far = PairTable::new(&params).terms(3.2, 0, 0).e_vdw;
        // Remaining difference is the constant Δ = −valence softplus
        // penalty of two isolated atoms.
        let sp = (1.0f64 + (-params.elements[0].valence).exp()).ln();
        let e_over_iso = 2.0 * params.p_over * sp * sp;
        assert!(
            (e_far - (vdw_far + e_over_iso)).abs() < 1e-6,
            "{e_far} vs vdw {vdw_far} + over {e_over_iso}"
        );
    }

    /// The 486-atom 3×3×3 crystal at 300 K under NVE at 0.1 fs, the
    /// benchmark's workload in small.
    fn md(space: Space, seed: u64) -> Simulation {
        let (pos, types, domain) = hns::crystal(3, 3, 3, 7.5);
        let mut atoms = AtomData::from_positions(&pos);
        atoms.mass = vec![12.0, 1.0, 14.0, 16.0];
        for (i, &t) in types.iter().enumerate() {
            atoms.typ.h_view_mut().set([i], t);
        }
        create_velocities(&mut atoms, &Units::metal(), 300.0, seed);
        let system = System::new(atoms, domain, space).with_units(Units::metal());
        let mut sim = Simulation::new(system, Box::new(PairReaxff::new(ReaxParams::hns_like())));
        sim.dt = 0.0001;
        sim
    }

    fn reax(sim: &Simulation) -> &PairReaxff {
        sim.pair.as_any().downcast_ref().expect("reaxff style")
    }

    /// Step `n` times, returning the CG iterations of every step.
    fn step_counting(sim: &mut Simulation, n: usize) -> Vec<usize> {
        (0..n)
            .map(|_| {
                sim.run(1);
                reax(sim).last_qeq_iterations
            })
            .collect()
    }

    fn positions_by_tag(sim: &Simulation) -> Vec<(i64, [f64; 3])> {
        let atoms = &sim.system.atoms;
        let mut rows: Vec<_> = (0..atoms.nlocal)
            .map(|i| (atoms.tag.h_view().at([i]), atoms.pos(i)))
            .collect();
        rows.sort_by_key(|r| r.0);
        rows
    }

    #[test]
    fn warm_start_cuts_iterations_and_keeps_the_charges() {
        let mut sim = md(Space::Threads, 11);
        sim.setup();
        let cold = reax(&sim).last_qeq_iterations;
        let warm = step_counting(&mut sim, 50);
        assert!(cold > 20, "cold solve took {cold} iterations");
        assert!(
            warm[5..].iter().all(|&it| it <= 10),
            "cold {cold}, warm {warm:?}"
        );
        // The zero-guess solve at the final positions is the oracle.
        let mut fresh = PairReaxff::new(ReaxParams::hns_like());
        let warm_q = reax(&sim).last_charges.clone();
        run_compute(&mut sim.system, &mut fresh);
        assert!(fresh.last_qeq_iterations > 20);
        let worst = warm_q
            .iter()
            .zip(&fresh.last_charges)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(worst <= 1e-6, "max |dq| {worst:e} e");
        assert!(warm_q.iter().sum::<f64>().abs() < 1e-8);
    }

    #[test]
    fn history_follows_a_permutation_of_the_owned_atoms() {
        let run = |permute: bool| {
            let mut sim = md(Space::Serial, 5);
            sim.setup();
            let mut iterations = step_counting(&mut sim, 10);
            if permute {
                // Reverse the owned rows of every per-atom field, tags
                // included. The list was built for the old order; the
                // displacement check sees every row far from where it
                // was and rebuilds on the next step.
                let atoms = &mut sim.system.atoms;
                let n = atoms.nlocal;
                let records: Vec<_> = (0..n).map(|i| atoms.record(i)).collect();
                let forces: Vec<_> = (0..n).map(|i| atoms.f.h_view().get3(i)).collect();
                for (i, (r, f)) in records.iter().zip(&forces).rev().enumerate() {
                    for (k, &fk) in f.iter().enumerate() {
                        atoms.x.h_view_mut().set([i, k], r.x[k]);
                        atoms.v.h_view_mut().set([i, k], r.v[k]);
                        atoms.f.h_view_mut().set([i, k], fk);
                    }
                    atoms.tag.h_view_mut().set([i], r.tag);
                    atoms.typ.h_view_mut().set([i], r.typ);
                    atoms.q.h_view_mut().set([i], r.q);
                    atoms.image[i] = r.image;
                }
            }
            let rebuilds = sim.rebuild_count;
            iterations.extend(step_counting(&mut sim, 10));
            assert_eq!(sim.rebuild_count > rebuilds, permute);
            (positions_by_tag(&sim), iterations)
        };
        let (reference, ref_iterations) = run(false);
        let (permuted, iterations) = run(true);
        assert!(
            iterations[5..].iter().all(|&it| it <= 10),
            "{iterations:?} (unpermuted {ref_iterations:?})"
        );
        for ((tag_a, a), (tag_b, b)) in reference.iter().zip(&permuted) {
            assert_eq!(tag_a, tag_b);
            for k in 0..3 {
                assert!((a[k] - b[k]).abs() <= 1e-10, "tag {tag_a}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn a_different_smaller_system_starts_cold() {
        let mut pair = PairReaxff::new(ReaxParams::hns_like());
        let mut big = md(Space::Serial, 3).system;
        for _ in 0..5 {
            run_compute(&mut big, &mut pair);
        }
        let grown = pair.grow_count();
        // One molecule, tags 1..=18: all of them tags the history
        // holds, none of them the same atom.
        let mut small = hns_system(1, Space::Serial);
        let (forces, res) = run_compute(&mut small, &mut pair);
        let mut fresh = PairReaxff::new(ReaxParams::hns_like());
        let (fresh_forces, fresh_res) = run_compute(&mut hns_system(1, Space::Serial), &mut fresh);
        assert_eq!(pair.last_qeq_iterations, fresh.last_qeq_iterations);
        assert_eq!(pair.last_charges, fresh.last_charges);
        assert_eq!(forces, fresh_forces);
        assert_eq!(res.energy, fresh_res.energy);
        assert_eq!(pair.grow_count(), grown, "a smaller system fits the pool");
    }

    #[test]
    fn spatial_sort_keeps_the_warm_start() {
        let mut sim = md(Space::Threads, 9);
        sim.sort_every = 1;
        // A thin skin makes the run rebuild (and so sort) every few
        // steps instead of every few dozen.
        sim.settings.skin = 0.02;
        sim.setup();
        let iterations = step_counting(&mut sim, 30);
        assert!(sim.rebuild_count >= 4, "{} rebuilds", sim.rebuild_count);
        assert!(
            iterations[5..].iter().all(|&it| it <= 10),
            "{iterations:?} over {} rebuilds",
            sim.rebuild_count
        );
    }

    #[test]
    fn workspace_stops_growing_after_warm_up() {
        let mut sim = md(Space::Threads, 7);
        sim.setup();
        sim.run(5);
        let grown = reax(&sim).grow_count();
        assert!(grown > 0);
        sim.run(10);
        assert_eq!(reax(&sim).grow_count(), grown);
    }

    #[test]
    fn eflag_off_skips_the_tallies_and_keeps_the_forces() {
        let compute = |eflag: bool| {
            let mut pair = PairReaxff::new(ReaxParams::hns_like());
            let (forces, res) =
                run_compute_with(&mut hns_system(1, Space::Serial), &mut pair, eflag);
            (forces, res, pair.last_charges)
        };
        let (f_on, res_on, q_on) = compute(true);
        let (f_off, res_off, q_off) = compute(false);
        assert_eq!(f_on, f_off);
        assert_eq!(q_on, q_off);
        assert!(res_on.energy != 0.0 && res_on.virial != 0.0);
        assert_eq!(res_off, PairResults::default());
    }

    #[test]
    #[should_panic(expected = "QEq did not converge in region 'qeq': 72 CG iterations")]
    fn non_convergence_fails_loudly() {
        // The dimer whose negative hardness cancels its coupling (see
        // `qeq::tests::indefinite_matrix_reports_non_convergence`).
        let mut params = ReaxParams::single_element();
        params.elements[0].eta = -0.5 * PairTable::new(&params).terms(1.5, 0, 0).h;
        let atoms = AtomData::from_positions(&[[9.0, 9.0, 9.0], [10.5, 9.0, 9.0]]);
        let mut system = System::new(atoms, lkk_core::domain::Domain::cubic(18.0), Space::Serial);
        run_compute(&mut system, &mut PairReaxff::new(params));
    }
}
