//! Pair styles and the generic `PairKokkos` two-body driver.
//!
//! §4.1 of the paper: "most two-body forces are implemented through a
//! pair_kokkos abstraction. Each two-body pair style derives from a
//! base 'PairKokkos' class that contains a method defining a generic
//! two-body potential. The derived class implements its own kernels
//! that only compute the pairwise force and, if required, energy for
//! the specific potential form. The base class handles all other
//! details: neighbor list style, managing ScatterView objects, radial
//! cutoff calculations, accumulating forces and energies, etc."
//!
//! Here [`TwoBody`] is the derived-class contract (force magnitude and
//! energy of one pair) and [`PairKokkos`] the base-class driver, with
//! three execution strategies:
//!
//! * full neighbor list, one work item per atom (GPU default),
//! * half neighbor list with `ScatterView` deconfliction (CPU default),
//! * full list with hierarchical team-over-neighbors parallelism for
//!   small systems (Fig. 2a).

use crate::atom::Mask;
use crate::neighbor::{NeighborList, Rows, CHUNK};
use crate::sim::System;
use lkk_gpusim::KernelStats;
use lkk_kokkos::{
    parts, AtomicF64, RowMut, ScatterMode, ScatterView, Space, TeamPolicy, Triples, View1, View2,
};
use std::sync::atomic::{AtomicU64, Ordering};

pub mod eam;
pub mod lj;
pub mod mliap;
pub mod morse;
pub mod scratch;
pub mod sw;

/// Energy and virial returned by a force computation. All zero when
/// the computation ran with `eflag` off (see [`PairStyle::compute`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PairResults {
    pub energy: f64,
    /// Pair virial `Σ r·f` (scalar trace), for pressure.
    pub virial: f64,
    /// Full virial tensor in Voigt order `xx, yy, zz, xy, xz, yz`
    /// (`W_ab = Σ r_a f_b` over pairs). Styles that only track the
    /// isotropic part put `virial/3` on the diagonal.
    pub virial_tensor: [f64; 6],
}

impl PairResults {
    /// Build from energy and a pair-wise accumulated tensor.
    pub fn with_tensor(energy: f64, w: [f64; 6]) -> Self {
        PairResults {
            energy,
            virial: w[0] + w[1] + w[2],
            virial_tensor: w,
        }
    }

    /// Build from energy and the scalar virial only (isotropic).
    pub fn isotropic(energy: f64, virial: f64) -> Self {
        let d = virial / 3.0;
        PairResults {
            energy,
            virial,
            virial_tensor: [d, d, d, 0.0, 0.0, 0.0],
        }
    }
}

/// What one work item of a force kernel tallies and the kernel's
/// reduction sums over atoms: energy, Voigt virial (`xx, yy, zz, xy, xz,
/// yz`) and, for the drivers that count them, pairs inside the cutoff.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub e: f64,
    pub w: [f64; 6],
    pub inside: u64,
}

impl Tally {
    pub fn join(a: Tally, b: Tally) -> Tally {
        Tally {
            e: a.e + b.e,
            w: std::array::from_fn(|k| a.w[k] + b.w[k]),
            inside: a.inside + b.inside,
        }
    }

    /// A central pair's virial `fpair·d ⊗ d` (`d` the pair displacement,
    /// `fpair·d` the force).
    #[inline(always)]
    pub fn add_pair_virial(&mut self, fpair: f64, d: [f64; 3]) {
        let w = &mut self.w;
        w[0] += fpair * d[0] * d[0];
        w[1] += fpair * d[1] * d[1];
        w[2] += fpair * d[2] * d[2];
        w[3] += fpair * d[0] * d[1];
        w[4] += fpair * d[0] * d[2];
        w[5] += fpair * d[1] * d[2];
    }

    /// One leg of a many-body virial `Σ d ⊗ f`, symmetrised: `f` the
    /// force on the atom at displacement `d` from the central one.
    #[inline(always)]
    pub fn add_leg(&mut self, d: [f64; 3], f: [f64; 3]) {
        let w = &mut self.w;
        w[0] += d[0] * f[0];
        w[1] += d[1] * f[1];
        w[2] += d[2] * f[2];
        w[3] += 0.5 * (d[0] * f[1] + d[1] * f[0]);
        w[4] += 0.5 * (d[0] * f[2] + d[2] * f[0]);
        w[5] += 0.5 * (d[1] * f[2] + d[2] * f[1]);
    }

    /// Energy and virial as a style returns them: the tally under
    /// `eflag`, zeros without (see [`PairStyle::compute`]).
    pub fn results(self, eflag: bool) -> PairResults {
        if eflag {
            PairResults::with_tensor(self.e, self.w)
        } else {
            PairResults::default()
        }
    }
}

/// The force scatter of a style whose work items write other atoms'
/// rows: one pooled [`ScatterView`] over owned and ghost atoms, reshaped
/// in place when the ghost count moves (never reallocated below its
/// peak), and the epilogue that lands it in `atoms.f`.
#[derive(Default)]
pub struct ForceScatter {
    view: Option<ScatterView>,
}

impl ForceScatter {
    /// Shape the pool for `nall` atoms in `space`'s default mode, ahead
    /// of a kernel's [`ForceScatter::parts`] launch.
    pub fn ensure(&mut self, nall: usize, space: &Space) {
        let mode = ScatterMode::default_for(space);
        self.view
            .get_or_insert_with(|| ScatterView::new(nall, 3, mode))
            .ensure(nall, 3, mode);
    }

    /// The pool as a `*_parts` dispatch output: each work item gets the
    /// handle of the thread that runs it ([`parts::scatter`]).
    pub fn parts(&mut self) -> parts::Scatter<'_> {
        let view = self.view.as_mut();
        parts::scatter(view.expect("ForceScatter::ensure comes first"))
    }

    /// Epilogue: `atoms.f` becomes the scattered forces (the pool is
    /// left zeroed for the next step) and is marked modified on the
    /// system's space.
    pub fn contribute(&mut self, system: &mut System) {
        let space = system.space.clone();
        let f = system.atoms.f.view_for_mut(&space);
        f.fill(0.0);
        self.view
            .as_mut()
            .expect("ForceScatter::ensure comes first")
            .contribute_into_view(f);
        system.atoms.modified(&space, Mask::F);
    }

    /// Heap growths of the pool since construction (0 in steady state).
    pub fn grow_count(&self) -> u64 {
        self.view.as_ref().map_or(0, ScatterView::grow_count)
    }
}

/// A persistent force-field style (§2.2: "pair styles ... are typically
/// the most expensive part of a simulation").
pub trait PairStyle: Send + std::any::Any {
    fn name(&self) -> &str;
    /// Downcast support (e.g. to read style-specific diagnostics).
    fn as_any(&self) -> &dyn std::any::Any;
    /// Rename the style to its resolved registry key (e.g. after
    /// suffix resolution turned `lj/cut` into `lj/cut/kk`).
    fn set_name(&mut self, _name: &str) {}
    /// Largest force cutoff (drives neighbor-list construction).
    fn cutoff(&self) -> f64;
    /// Does this style want a half list (Newton's third law)?
    fn wants_half_list(&self) -> bool;
    /// Does the style accumulate force on ghost atoms (requiring
    /// reverse communication)?
    fn needs_reverse_comm(&self) -> bool {
        self.wants_half_list()
    }
    /// Compute forces into `system.atoms.f` — always — and return the
    /// energy and virial when `eflag` is set. With `eflag` off a style
    /// may skip the tally and return [`PairResults::default`] (zeros);
    /// every style here does, with the forces unchanged (each has a unit
    /// test on it).
    /// `Simulation` sets `eflag` at set-up, on thermo steps and on the
    /// last step of every `run`/`try_run` call, which is when
    /// `Simulation::last_results` is refreshed.
    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults;
    /// Heap growths of the style's persistent scatter buffers since
    /// construction (0 in steady state; styles without scatter storage
    /// report 0). See `docs/performance.md`.
    fn scatter_grow_count(&self) -> u64 {
        0
    }
}

/// The per-pair contract a concrete two-body potential implements.
pub trait TwoBody: Send + Sync {
    fn type_name(&self) -> &'static str;
    /// How many atom types `cutsq` and `pair` distinguish. `1` promises
    /// that both ignore `ti`/`tj`: the driver then reads the cutoff once
    /// per launch and never gathers a neighbor's type (LAMMPS'
    /// `STACKPARAMS` for the one-type case).
    fn ntypes(&self) -> usize;
    /// Squared cutoff for a type pair (0-based types).
    fn cutsq(&self, ti: usize, tj: usize) -> f64;
    /// Largest cutoff over all type pairs.
    fn max_cutoff(&self) -> f64;
    /// For a pair within the cutoff: `(fpair, evdwl)` where the force
    /// on atom `i` is `fpair * (x_i - x_j)` and `evdwl` is the full
    /// pair energy. Never called with `rsq >= cutsq(ti, tj)`.
    fn pair(&self, rsq: f64, ti: usize, tj: usize) -> (f64, f64);
    /// FP64 operations per computed pair (for the device cost model).
    fn flops_per_pair(&self) -> f64 {
        23.0
    }
}

/// Execution strategy knobs for [`PairKokkos`] (Fig. 2's experiment
/// axes).
#[derive(Debug, Clone, Copy, Default)]
pub struct PairKokkosOptions {
    /// `None`: follow the execution-space default (full on device, half
    /// on host). `Some(h)`: force half (`true`) or full (`false`).
    pub force_half: Option<bool>,
    /// Expose parallelism over neighbors with team policies (Fig. 2a).
    pub team_over_neighbors: bool,
}

/// The generic two-body driver.
pub struct PairKokkos<P: TwoBody> {
    pub pot: P,
    pub options: PairKokkosOptions,
    scatter: ForceScatter,
    half: bool,
    name: String,
}

/// The read-only inputs of one kernel launch, gathered once. `Copy`,
/// and a work item's entry points (`atom`, `chunk`, `filter`) take it by
/// value: the kernels store into a row part or a scatter handle, which
/// the compiler cannot prove disjoint from what it reaches through a
/// reference to the launch, so it would reload that after every store;
/// each work item holds slices, the row reader and the hoisted cutoff as
/// locals instead. The per-neighbor helpers (`typ`, `cutsq`,
/// `separation`) borrow that local copy: passed by value they copied all
/// 128 bytes of it per neighbor.
struct Launch<'a, P> {
    pot: &'a P,
    /// `Some(cutsq)` when the potential is uniform over types.
    uniform_cutsq: Option<f64>,
    x: Triples<'a, f64>,
    typs: &'a [i32],
    rows: Rows<'a>,
    /// Share of a stored pair's energy and virial: all of it on a half
    /// list, half on a full list (which stores every pair twice).
    /// Multiplying by `1.0` is exact, so one loop serves both.
    share: f64,
}

impl<P> Clone for Launch<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P> Copy for Launch<'_, P> {}

impl<'a, P: TwoBody> Launch<'a, P> {
    fn new(pot: &'a P, x: &'a View2<f64>, typ: &'a View1<i32>, list: &'a NeighborList) -> Self {
        Launch {
            pot,
            uniform_cutsq: (pot.ntypes() == 1).then(|| pot.cutsq(0, 0)),
            x: x.triples(),
            typs: typ.as_slice(),
            rows: list.rows(),
            share: if list.half { 1.0 } else { 0.5 },
        }
    }

    /// Type of atom `j` as the potential sees it (always 0 if uniform).
    #[inline(always)]
    fn typ(&self, j: usize) -> usize {
        match self.uniform_cutsq {
            Some(_) => 0,
            None => self.typs[j] as usize,
        }
    }

    /// Squared cutoff between types `ti` and `tj` (hoisted if uniform).
    #[inline(always)]
    fn cutsq(&self, ti: usize, tj: usize) -> f64 {
        match self.uniform_cutsq {
            Some(cutsq) => cutsq,
            None => self.pot.cutsq(ti, tj),
        }
    }

    /// Displacement `xi - xj` and its squared length.
    #[inline(always)]
    fn separation(&self, xi: [f64; 3], j: usize) -> ([f64; 3], f64) {
        let xj = self.x.get(j);
        let d = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
        (d, d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    }

    /// Pass 1: measure the neighbors `js` of an atom at `xi` branch-free.
    /// Every index is stored; the cursor advances only past the ones
    /// inside the cutoff. Returns the number of hits.
    #[inline(always)]
    fn filter(
        self,
        xi: [f64; 3],
        ti: usize,
        js: impl Iterator<Item = u32>,
        hits: &mut [u32; CHUNK],
    ) -> usize {
        let mut nhit = 0usize;
        js.for_each(|ju| {
            let j = ju as usize;
            hits[nhit] = ju;
            nhit += usize::from(self.separation(xi, j).1 < self.cutsq(ti, self.typ(j)));
        });
        nhit
    }

    /// The one neighbor loop: chunk `c` of atom `i`'s row, filter then
    /// compute. Pass 1 compacts the neighbors inside the cutoff into
    /// `hits`; pass 2 evaluates the potential on those alone, in list
    /// order — so every sum is taken in the order of a plain branchy
    /// loop over the row, and `pair` is never asked about a distance
    /// beyond the cutoff. The force on `i` accumulates into `fi`;
    /// `on_j(j, f)` receives the same force for the kernel to apply
    /// (negated) to `j` or drop.
    #[inline(always)]
    fn chunk<const EV: bool>(
        self,
        i: usize,
        c: usize,
        fi: &mut [f64; 3],
        tally: &mut Tally,
        on_j: &mut impl FnMut(usize, [f64; 3]),
    ) {
        let xi = self.x.get(i);
        let ti = self.typ(i);
        let mut hits = [0u32; CHUNK];
        let nhit = self.filter(xi, ti, self.rows.chunk(i, c), &mut hits);
        for &ju in &hits[..nhit] {
            let j = ju as usize;
            let (d, rsq) = self.separation(xi, j);
            let (fpair, evdwl) = self.pot.pair(rsq, ti, self.typ(j));
            let f = [fpair * d[0], fpair * d[1], fpair * d[2]];
            for k in 0..3 {
                fi[k] += f[k];
            }
            on_j(j, f);
            if EV {
                tally.e += self.share * evdwl;
                tally.add_pair_virial(self.share * fpair, d);
            }
        }
        tally.inside += nhit as u64;
    }

    /// Atom `i`'s whole row: `(force on i, tally)`.
    #[inline(always)]
    fn atom<const EV: bool>(
        self,
        i: usize,
        mut on_j: impl FnMut(usize, [f64; 3]),
    ) -> ([f64; 3], Tally) {
        let (mut fi, mut tally) = ([0.0; 3], Tally::default());
        for c in 0..self.rows.chunks(i) {
            self.chunk::<EV>(i, c, &mut fi, &mut tally, &mut on_j);
        }
        (fi, tally)
    }
}

impl<P: TwoBody> PairKokkos<P> {
    pub fn new(pot: P, space: &Space) -> Self {
        Self::with_options(pot, space, PairKokkosOptions::default())
    }

    pub fn with_options(pot: P, space: &Space, options: PairKokkosOptions) -> Self {
        // §4.1: "typically a full neighbor list and newton off is better
        // for GPUs, while a half list and newton on is better for CPUs".
        let half = options.force_half.unwrap_or(!space.is_device());
        let name = format!(
            "{}{}",
            pot.type_name(),
            if space.is_device() { "/kk" } else { "" }
        );
        PairKokkos {
            pot,
            options,
            scatter: ForceScatter::default(),
            half,
            name,
        }
    }

    /// Full-list kernels: every work item writes only its own force row
    /// (no conflicts, no atomics; work is duplicated). Flat, one work
    /// item per atom; or hierarchical (Fig. 2a), one team per atom with
    /// the row's chunks distributed over the team, exposing
    /// `atoms × neighbors` concurrency.
    fn compute_full<const EV: bool>(&self, system: &mut System, list: &NeighborList) -> Tally {
        let space = system.space.clone();
        let atoms = &mut system.atoms;
        let launch = Launch::new(
            &self.pot,
            atoms.x.view_for(&space),
            atoms.typ.view_for(&space),
            list,
        );
        let f = atoms.f.view_for_mut(&space);
        f.fill(0.0);
        let store = |mut row: RowMut<f64>, fi: [f64; 3]| {
            for (k, fik) in fi.into_iter().enumerate() {
                row[k] = fik;
            }
        };
        if !self.options.team_over_neighbors {
            let item = |i, row| {
                let (fi, tally) = launch.atom::<EV>(i, |_, _| {});
                store(row, fi);
                tally
            };
            return space.parallel_reduce_parts(
                "PairComputeFull",
                atoms.nlocal,
                f.rows_mut(),
                Tally::default(),
                item,
                Tally::join,
            );
        }
        let e_acc = AtomicF64::new(0.0);
        let w_acc: [AtomicF64; 6] = std::array::from_fn(|_| AtomicF64::new(0.0));
        let inside_acc = AtomicU64::new(0);
        let policy = TeamPolicy::new(atoms.nlocal, 32);
        space.parallel_for_team_parts("PairComputeFullTeam", policy, f.rows_mut(), |team, row| {
            let i = team.league_rank();
            let (mut fi, mut tally) = ([0.0; 3], Tally::default());
            team.team_range(launch.rows.chunks(i), |c| {
                launch.chunk::<EV>(i, c, &mut fi, &mut tally, &mut |_, _| {})
            });
            store(row, fi);
            if EV {
                e_acc.fetch_add(tally.e);
                for (acc, wk) in w_acc.iter().zip(tally.w) {
                    acc.fetch_add(wk);
                }
            }
            // A statistic: publishes nothing, read after the dispatch joins.
            inside_acc.fetch_add(tally.inside, Ordering::Relaxed);
        });
        Tally {
            e: e_acc.load(),
            w: w_acc.map(|acc| acc.load()),
            inside: inside_acc.into_inner(),
        }
    }

    /// Half-list kernel: each pair computed once, force scattered to
    /// both atoms through a `ScatterView` (atomics on the device,
    /// duplication on threaded hosts, §3.2), one handle per atom.
    fn compute_half<const EV: bool>(&mut self, system: &mut System, list: &NeighborList) -> Tally {
        let space = system.space.clone();
        self.scatter.ensure(system.atoms.nall(), &space);
        let atoms = &system.atoms;
        let launch = Launch::new(
            &self.pot,
            atoms.x.view_for(&space),
            atoms.typ.view_for(&space),
            list,
        );
        let tally = space.parallel_reduce_parts(
            "PairComputeHalf",
            atoms.nlocal,
            self.scatter.parts(),
            Tally::default(),
            |i, forces| {
                let (fi, tally) =
                    launch.atom::<EV>(i, |j, f| forces.add3(j, [-f[0], -f[1], -f[2]]));
                forces.add3(i, fi);
                tally
            },
            Tally::join,
        );
        self.scatter.contribute(system);
        tally
    }

    fn launch<const EV: bool>(&mut self, system: &mut System, list: &NeighborList) -> Tally {
        if self.half {
            self.compute_half::<EV>(system, list)
        } else {
            let tally = self.compute_full::<EV>(system, list);
            system.atoms.modified(&system.space.clone(), Mask::F);
            tally
        }
    }

    /// Attach measured event counts for the device cost model. The
    /// modelled device is charged the same flops whether or not the
    /// host skipped the energy (`pairs_inside` does not depend on it).
    fn note_stats(&self, system: &System, list: &NeighborList, pairs_inside: u64) {
        let space = &system.space;
        if !space.is_device() {
            return;
        }
        let nlocal = system.atoms.nlocal as f64;
        let total_pairs = list.total_pairs as f64;
        let mut s = KernelStats::new(if self.half {
            "PairComputeHalf"
        } else if self.options.team_over_neighbors {
            "PairComputeTeam"
        } else {
            "PairComputeLJCut"
        });
        s.work_items = if self.options.team_over_neighbors {
            total_pairs
        } else {
            nlocal
        };
        s.flops = pairs_inside as f64 * self.pot.flops_per_pair() + total_pairs * 8.0; // distance + cutoff check on every listed pair
        if self.options.team_over_neighbors {
            // Fig. 2a: "the benefit of additional parallelism outweighs
            // the reduced efficiency of the more complex iteration
            // pattern" — at saturation that reduced efficiency is what
            // remains (team reductions + per-team bookkeeping).
            s.flops *= 1.15;
        }
        s.dram_bytes = nlocal * (24.0 + 24.0) + total_pairs * 4.0;
        s.reused_bytes = total_pairs * 24.0;
        // One SM runs ~2048 resident threads = 2048 atoms' neighborhoods.
        s.working_set_bytes = list.working_set_bytes_cached();
        s.atomic_f64_ops = if self.half {
            (pairs_inside * 6) as f64
        } else {
            0.0
        };
        s.convergence = if total_pairs > 0.0 {
            (pairs_inside as f64 / total_pairs).clamp(0.05, 1.0)
        } else {
            1.0
        };
        space.note_kernel(s);
    }
}

impl<P: TwoBody + 'static> PairStyle for PairKokkos<P> {
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
        self.pot.max_cutoff()
    }

    fn wants_half_list(&self) -> bool {
        self.half
    }

    fn scatter_grow_count(&self) -> u64 {
        self.scatter.grow_count()
    }

    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults {
        assert_eq!(
            list.half, self.half,
            "pair style '{}' given wrong list style",
            self.name
        );
        let space = system.space.clone();
        system.atoms.sync(&space, Mask::X | Mask::TYPE);
        let tally = if eflag {
            self.launch::<true>(system, list)
        } else {
            self.launch::<false>(system, list)
        };
        self.note_stats(system, list, tally.inside);
        tally.results(eflag)
    }
}

#[cfg(test)]
mod tests {
    use super::lj::LjCut;
    use super::*;
    use crate::atom::AtomData;
    use crate::comm::build_ghosts;
    use crate::lattice::{Lattice, LatticeKind};
    use crate::neighbor::{NeighborList, NeighborSettings};
    use crate::sim::System;

    fn melt_system(space: Space) -> System {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let atoms = AtomData::from_positions(&lat.positions(4, 4, 4));
        System::new(atoms, lat.domain(4, 4, 4), space)
    }

    fn forces_and_energy(
        space: Space,
        options: PairKokkosOptions,
        half: bool,
    ) -> (Vec<f64>, PairResults) {
        let mut system = melt_system(space);
        let pot = LjCut::single_type(1.0, 1.0, 2.5);
        let opts = PairKokkosOptions {
            force_half: Some(half),
            ..options
        };
        let space = system.space.clone();
        let mut pair = PairKokkos::with_options(pot, &space, opts);
        let settings = NeighborSettings::new(pair.cutoff(), 0.3, half);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        let res = pair.compute(&mut system, &list, true);
        if pair.needs_reverse_comm() {
            system.atoms.sync(&Space::Serial, crate::atom::Mask::F);
            crate::comm::reverse_forces(&mut system.atoms, &system.ghosts);
        }
        system.atoms.sync(&Space::Serial, crate::atom::Mask::F);
        let fh = system.atoms.f.h_view();
        let forces: Vec<f64> = (0..system.atoms.nlocal)
            .flat_map(|i| (0..3).map(move |k| (i, k)))
            .map(|(i, k)| fh.at([i, k]))
            .collect();
        (forces, res)
    }

    /// A style's scatter pool is one view across rebuilds that change the
    /// ghost count: a growth on the way up to the peak, counted, then
    /// flat however the count moves beneath it. (A view replaced on an
    /// `nall` change would read 0 growths and reallocate unseen.) `few`
    /// and `many` are the same full-list system before and after a slide
    /// that moves a lattice plane inside the ghost cutoff.
    pub(super) fn assert_scatter_pool_is_reused(
        pair: &mut dyn PairStyle,
        few: &[[f64; 3]],
        many: &[[f64; 3]],
        domain: crate::domain::Domain,
    ) {
        let mut nall_of = |positions: &[[f64; 3]]| {
            let mut atoms = AtomData::from_positions(positions);
            atoms.wrap_positions(&domain);
            let mut system = System::new(atoms, domain, Space::Threads);
            let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
            system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
            let list = NeighborList::build(&system.atoms, &system.domain, &settings, &system.space);
            pair.compute(&mut system, &list, false);
            (system.atoms.nall(), pair.scatter_grow_count())
        };
        let ((nfew, _), (nmany, warm)) = (nall_of(few), nall_of(many));
        assert!(nfew < nmany, "ghost count did not move: {nfew} vs {nmany}");
        assert!(warm > 0, "the view did not survive the nall change");
        for _ in 0..2 {
            assert_eq!(nall_of(few), (nfew, warm), "scatter grew in steady state");
            assert_eq!(nall_of(many), (nmany, warm), "scatter grew in steady state");
        }
    }

    #[test]
    fn half_and_full_agree() {
        let (ff, rf) = forces_and_energy(Space::Serial, Default::default(), false);
        let (fh, rh) = forces_and_energy(Space::Serial, Default::default(), true);
        assert!((rf.energy - rh.energy).abs() < 1e-9 * rf.energy.abs());
        assert!((rf.virial - rh.virial).abs() < 1e-9 * rf.virial.abs().max(1.0));
        for (a, b) in ff.iter().zip(&fh) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn team_variant_agrees_with_flat() {
        let (ff, rf) = forces_and_energy(Space::Serial, Default::default(), false);
        let opts = PairKokkosOptions {
            team_over_neighbors: true,
            force_half: None,
        };
        let (ft, rt) = forces_and_energy(Space::Serial, opts, false);
        assert!((rf.energy - rt.energy).abs() < 1e-9 * rf.energy.abs());
        for (a, b) in ff.iter().zip(&ft) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn spaces_agree() {
        let (fs, rs) = forces_and_energy(Space::Serial, Default::default(), false);
        let (ft, rt) = forces_and_energy(Space::Threads, Default::default(), false);
        let (fd, rd) = forces_and_energy(
            Space::device(lkk_gpusim::GpuArch::h100()),
            Default::default(),
            false,
        );
        assert!((rs.energy - rt.energy).abs() < 1e-9 * rs.energy.abs());
        assert!((rs.energy - rd.energy).abs() < 1e-9 * rs.energy.abs());
        for ((a, b), c) in fs.iter().zip(&ft).zip(&fd) {
            assert!((a - b).abs() < 1e-9);
            assert!((a - c).abs() < 1e-9);
        }
    }

    #[test]
    fn perfect_lattice_at_minimum_has_near_zero_force() {
        // In a perfect fcc lattice every atom's force vanishes by symmetry.
        let (f, res) = forces_and_energy(Space::Serial, Default::default(), false);
        for x in &f {
            assert!(x.abs() < 1e-9, "residual force {x}");
        }
        // Cohesive energy is negative.
        assert!(res.energy < 0.0);
    }

    #[test]
    fn device_records_kernel_stats() {
        let space = Space::device(lkk_gpusim::GpuArch::h100());
        let ctx = space.device_ctx().unwrap().clone();
        let _ = forces_and_energy(space, Default::default(), false);
        let agg = ctx.log.aggregate();
        let pair = agg.iter().find(|s| s.name == "PairComputeLJCut").unwrap();
        assert!(pair.flops > 0.0);
        assert!(pair.reused_bytes > 0.0);
        assert!(pair.working_set_bytes > 0.0);
        assert_eq!(pair.atomic_f64_ops, 0.0);
    }

    #[test]
    fn newtons_third_law_total_force_zero() {
        let (f, _) = forces_and_energy(Space::Threads, Default::default(), true);
        for k in 0..3 {
            let total: f64 = f.iter().skip(k).step_by(3).sum();
            assert!(total.abs() < 1e-9, "net force component {total}");
        }
    }

    // ------------------------------------------------------------------
    // Bit-identity of the filter-then-compute kernels
    // ------------------------------------------------------------------

    use super::morse::Morse;

    /// Jittered fcc sites: every site moved by up to ±0.1 per axis (fixed
    /// sequence), so no pair sits at a symmetric distance.
    fn jittered_sites(cells: usize) -> (Vec<[f64; 3]>, crate::domain::Domain) {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut positions = lat.positions(cells, cells, cells);
        let mut s = 987654321u64;
        for x in positions.iter_mut().flatten() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *x += 0.2 * ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
        }
        (positions, lat.domain(cells, cells, cells))
    }

    /// A system at `positions` (wrapped into the box) with ghosts and a
    /// list; `ntypes` types dealt round-robin.
    fn system_at(
        space: &Space,
        (positions, domain): &(Vec<[f64; 3]>, crate::domain::Domain),
        half: bool,
        cutoff: f64,
        ntypes: usize,
    ) -> (System, NeighborList) {
        let mut atoms = AtomData::from_positions(positions);
        atoms.wrap_positions(domain);
        for i in 0..atoms.nlocal {
            atoms.typ.h_view_mut().set([i], (i % ntypes) as i32);
        }
        let mut system = System::new(atoms, *domain, space.clone());
        let settings = NeighborSettings::new(cutoff, 0.3, half);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, space);
        (system, list)
    }

    fn jittered(
        space: &Space,
        cells: usize,
        half: bool,
        cutoff: f64,
        ntypes: usize,
    ) -> (System, NeighborList) {
        system_at(space, &jittered_sites(cells), half, cutoff, ntypes)
    }

    /// Every force component, owned and ghost rows.
    fn forces(system: &mut System) -> Vec<f64> {
        system.atoms.sync(&Space::Serial, Mask::F);
        let fh = system.atoms.f.h_view();
        (0..system.atoms.nall()).flat_map(|i| fh.get3(i)).collect()
    }

    /// Forces agree to the bit — or, where `exact` is off (atomic adds
    /// land in arrival order on a forking space), to rounding.
    fn assert_forces(got: &[f64], want: &[f64], exact: bool, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: force count");
        for (n, (g, w)) in got.iter().zip(want).enumerate() {
            let same = if exact {
                g.to_bits() == w.to_bits()
            } else {
                (g - w).abs() <= 1e-11 * w.abs().max(1.0)
            };
            assert!(same, "{what}: force component {n}: {g:e} vs {w:e}");
        }
    }

    /// The reference's pair virial `fpair·d ⊗ d`, as the free function
    /// the module had before [`Tally::add_pair_virial`].
    fn add_pair_virial(w: &mut [f64; 6], fpair: f64, d: [f64; 3]) {
        w[0] += fpair * d[0] * d[0];
        w[1] += fpair * d[1] * d[1];
        w[2] += fpair * d[2] * d[2];
        w[3] += fpair * d[0] * d[1];
        w[4] += fpair * d[0] * d[2];
        w[5] += fpair * d[1] * d[2];
    }

    /// The kernels this module had before the shared filter-then-compute
    /// loop, kept as the bitwise reference (as `fill_reference` is for
    /// the neighbor fill): one branchy pass over each row, a scatter
    /// `add` per component, energy and virial on every call. Same dispatches, so reduction order is the same too.
    fn compute_reference<P: TwoBody>(
        pot: &P,
        system: &mut System,
        list: &NeighborList,
        team: bool,
    ) -> (PairResults, u64) {
        let space = system.space.clone();
        system.atoms.sync(&space, Mask::X | Mask::TYPE);
        let (nlocal, nall) = (system.atoms.nlocal, system.atoms.nall());
        let atoms = &mut system.atoms;
        let x = atoms.x.view_for(&space);
        let typ = atoms.typ.view_for(&space);
        let f = atoms.f.view_for_mut(&space);
        f.fill(0.0);
        type Sums = (f64, [f64; 6], u64);
        let row = |i: usize, on_j: &mut dyn FnMut(usize, usize, f64)| -> ([f64; 3], Sums) {
            let xi = x.get3(i);
            let ti = typ.at([i]) as usize;
            let (mut fi, mut e, mut w, mut inside) = ([0.0; 3], 0.0, [0.0; 6], 0u64);
            for s in 0..list.numneigh.at([i]) as usize {
                let j = list.neighbors.at([i, s]) as usize;
                let tj = typ.at([j]) as usize;
                let xj = x.get3(j);
                let d = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                let rsq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                if rsq < pot.cutsq(ti, tj) {
                    let (fpair, evdwl) = pot.pair(rsq, ti, tj);
                    for k in 0..3 {
                        fi[k] += fpair * d[k];
                        on_j(j, k, -fpair * d[k]);
                    }
                    if list.half {
                        e += evdwl;
                        add_pair_virial(&mut w, fpair, d);
                    } else {
                        // Full list sees each pair twice: count half.
                        e += 0.5 * evdwl;
                        add_pair_virial(&mut w, 0.5 * fpair, d);
                    }
                    inside += 1;
                }
            }
            (fi, (e, w, inside))
        };
        let join = |a: Sums, b: Sums| {
            let mut w = a.1;
            for (wk, bk) in w.iter_mut().zip(b.1) {
                *wk += bk;
            }
            (a.0 + b.0, w, a.2 + b.2)
        };
        let zero: Sums = (0.0, [0.0; 6], 0);
        let (e, w, inside) = if list.half {
            let mut scatter = ScatterView::for_space(nall, 3, &space);
            let sums = space.parallel_reduce_parts(
                "ReferenceHalf",
                nlocal,
                parts::scatter(&mut scatter),
                zero,
                |i, forces| {
                    let (fi, sums) = row(i, &mut |j, k, v| forces.add(j, k, v));
                    for (k, &fik) in fi.iter().enumerate() {
                        forces.add(i, k, fik);
                    }
                    sums
                },
                join,
            );
            scatter.contribute_into_view(f);
            sums
        } else if team {
            let e_acc = AtomicF64::new(0.0);
            let w_acc: [AtomicF64; 6] = std::array::from_fn(|_| AtomicF64::new(0.0));
            let inside_acc = AtomicU64::new(0);
            let policy = TeamPolicy::new(nlocal, 32);
            space.parallel_for_team_parts("ReferenceTeam", policy, f.rows_mut(), |team, mut fw| {
                let i = team.league_rank();
                let (fi, (e, w, inside)) = row(i, &mut |_, _, _| {});
                for (k, &fik) in fi.iter().enumerate() {
                    fw[k] = fik;
                }
                e_acc.fetch_add(e);
                for (acc, wk) in w_acc.iter().zip(w) {
                    acc.fetch_add(wk);
                }
                inside_acc.fetch_add(inside, Ordering::Relaxed);
            });
            (
                e_acc.load(),
                w_acc.map(|acc| acc.load()),
                inside_acc.into_inner(),
            )
        } else {
            space.parallel_reduce_parts(
                "ReferenceFull",
                nlocal,
                f.rows_mut(),
                zero,
                |i, mut fw| {
                    let (fi, sums) = row(i, &mut |_, _, _| {});
                    for (k, &fik) in fi.iter().enumerate() {
                        fw[k] = fik;
                    }
                    sums
                },
                join,
            )
        };
        system.atoms.modified(&space, Mask::F);
        (PairResults::with_tensor(e, w), inside)
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Half,
        Full,
        Team,
    }

    impl Kind {
        const ALL: [Kind; 3] = [Kind::Half, Kind::Full, Kind::Team];

        fn options(self) -> PairKokkosOptions {
            PairKokkosOptions {
                force_half: Some(self == Kind::Half),
                team_over_neighbors: self == Kind::Team,
            }
        }
    }

    fn space_name(space: &Space) -> &'static str {
        match space {
            Space::Serial => "Serial",
            Space::Threads => "Threads",
            Space::Device(_) => "device(h100)",
        }
    }

    fn spaces() -> [Space; 3] {
        [
            Space::Serial,
            Space::Threads,
            Space::device(lkk_gpusim::GpuArch::h100()),
        ]
    }

    /// Energy and virial agree to the bit, or to rounding (see
    /// [`assert_forces`]).
    fn assert_results(got: PairResults, want: PairResults, exact: bool, what: &str) {
        let pairs = [(got.energy, want.energy), (got.virial, want.virial)];
        for (g, w) in pairs
            .into_iter()
            .chain(got.virial_tensor.into_iter().zip(want.virial_tensor))
        {
            let same = if exact {
                g.to_bits() == w.to_bits()
            } else {
                (g - w).abs() <= 1e-11 * want.energy.abs()
            };
            assert!(same, "{what}: energy/virial {g:e} vs {w:e}");
        }
    }

    /// Does this kernel sum in a fixed order on `space`? Not when it
    /// forks and joins through atomics: the team tallies, and the half
    /// kernel's device-mode scatter.
    fn deterministic(kind: Kind, space: &Space) -> (bool, bool) {
        let forks = !matches!(space, Space::Serial);
        let forces = !(forks && kind == Kind::Half && space.is_device());
        (forces, forces && !(forks && kind == Kind::Team))
    }

    /// `eflag` changes no force bit and no in-cutoff count, and with it
    /// on the kernels reproduce the reference's forces, energy and
    /// virial to the bit, for one potential on every kernel × space.
    fn check_against_reference<P: TwoBody + Clone + 'static>(pot: P, cutoff: f64, ntypes: usize) {
        for space in spaces() {
            for kind in Kind::ALL {
                let what = format!("{} {kind:?} on {}", pot.type_name(), space_name(&space));
                let (exact_f, exact_e) = deterministic(kind, &space);
                let (mut system, list) = jittered(&space, 8, kind == Kind::Half, cutoff, ntypes);
                assert!(system.atoms.nlocal >= 2048, "must be large enough to fork");
                let (want, want_inside) =
                    compute_reference(&pot, &mut system, &list, kind == Kind::Team);
                let want_forces = forces(&mut system);

                let mut pair = PairKokkos::with_options(pot.clone(), &space, kind.options());
                let on = pair.compute(&mut system, &list, true);
                assert_forces(&forces(&mut system), &want_forces, exact_f, &what);
                assert_results(on, want, exact_e, &what);
                let off = pair.compute(&mut system, &list, false);
                assert_forces(&forces(&mut system), &want_forces, exact_f, &what);
                assert_eq!(off, PairResults::default(), "{what}: eflag-off results");
                let inside_on = pair.launch::<true>(&mut system, &list).inside;
                let inside_off = pair.launch::<false>(&mut system, &list).inside;
                assert_eq!(inside_on, want_inside, "{what}: in-cutoff count");
                assert_eq!(inside_off, want_inside, "{what}: eflag-off in-cutoff count");
            }
        }
    }

    #[test]
    fn lj_matches_reference_bitwise() {
        check_against_reference(LjCut::single_type(1.0, 1.0, 2.5), 2.5, 1);
    }

    #[test]
    fn morse_matches_reference_bitwise() {
        check_against_reference(Morse::new(1.0, 2.0, 1.2, 2.5), 2.5, 1);
    }

    fn lj_mixture() -> LjCut {
        let mut lj = LjCut::new(2);
        lj.set_coeff(0, 0, 1.0, 1.0, 2.5);
        lj.set_coeff(0, 1, 1.5, 0.8, 2.0);
        lj.set_coeff(1, 1, 0.5, 1.1, 2.8);
        lj
    }

    /// The non-uniform path (per-pair ε, σ and cutoff): bitwise against
    /// the reference, and against an O(N²) minimum-image sum that knows
    /// nothing about lists, ghosts or chunks.
    #[test]
    fn two_type_mixture_matches_reference_and_brute_force() {
        let lj = lj_mixture();
        check_against_reference(lj.clone(), 2.8, 2);

        for half in [true, false] {
            let (mut system, list) = jittered(&Space::Serial, 5, half, 2.8, 2);
            let n = system.atoms.nlocal;
            let (mut e_want, mut f_want) = (0.0, vec![[0.0f64; 3]; n]);
            for i in 0..n {
                for j in i + 1..n {
                    let d = system
                        .domain
                        .min_image(&system.atoms.pos(i), &system.atoms.pos(j));
                    let rsq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    if rsq < lj.cutsq(i % 2, j % 2) {
                        let (fpair, evdwl) = lj.pair(rsq, i % 2, j % 2);
                        e_want += evdwl;
                        for k in 0..3 {
                            f_want[i][k] += fpair * d[k];
                            f_want[j][k] -= fpair * d[k];
                        }
                    }
                }
            }
            let opts = PairKokkosOptions {
                force_half: Some(half),
                ..Default::default()
            };
            let mut pair = PairKokkos::with_options(lj.clone(), &Space::Serial, opts);
            let res = pair.compute(&mut system, &list, true);
            if half {
                crate::comm::reverse_forces(&mut system.atoms, &system.ghosts);
            }
            assert!(
                (res.energy - e_want).abs() < 1e-10 * e_want.abs(),
                "half={half}: energy {} vs {e_want}",
                res.energy
            );
            let fh = system.atoms.f.h_view();
            for (i, want) in f_want.iter().enumerate() {
                for (k, &want) in want.iter().enumerate() {
                    let got = fh.at([i, k]);
                    assert!(
                        (got - want).abs() < 1e-9 * want.abs().max(1.0),
                        "half={half}: f[{i}][{k}] = {got} vs {want}"
                    );
                }
            }
        }
    }

    /// A potential that refuses to be evaluated beyond its cutoff, as a
    /// table style indexing out of range would.
    #[derive(Clone)]
    struct Guarded(LjCut);

    impl TwoBody for Guarded {
        fn type_name(&self) -> &'static str {
            "guarded"
        }
        fn ntypes(&self) -> usize {
            self.0.ntypes()
        }
        fn cutsq(&self, ti: usize, tj: usize) -> f64 {
            self.0.cutsq(ti, tj)
        }
        fn max_cutoff(&self) -> f64 {
            self.0.max_cutoff()
        }
        fn pair(&self, rsq: f64, ti: usize, tj: usize) -> (f64, f64) {
            assert!(
                rsq < self.0.cutsq(ti, tj),
                "pair() evaluated at rsq {rsq} beyond the cutoff"
            );
            self.0.pair(rsq, ti, tj)
        }
    }

    /// Cutoff 3.8: full rows hold ~240 entries and the longest half
    /// rows ~190, so they cross the filter's 128-entry chunk boundary;
    /// pass 2 must still see hits only, on contiguous (host) and strided
    /// (device) rows.
    #[test]
    fn rows_longer_than_a_chunk_see_hits_only() {
        let pot = Guarded(LjCut::single_type(1.0, 1.0, 3.8));
        for space in [Space::Serial, Space::device(lkk_gpusim::GpuArch::h100())] {
            for kind in [Kind::Full, Kind::Team, Kind::Half] {
                let what = format!("{kind:?} on {}", space_name(&space));
                let (exact_f, exact_e) = deterministic(kind, &space);
                let (mut system, list) = jittered(&space, 6, kind == Kind::Half, 3.8, 1);
                let longest = (0..list.nlocal)
                    .map(|i| list.numneigh.at([i]) as usize)
                    .max()
                    .unwrap();
                assert!(longest > CHUNK, "{what}: longest row {longest}");
                assert_eq!(
                    list.neighbors.layout() == lkk_kokkos::Layout::Left,
                    space.is_device(),
                    "{what}: row layout"
                );
                let (want, want_inside) =
                    compute_reference(&pot.0, &mut system, &list, kind == Kind::Team);
                assert!(
                    want_inside < list.total_pairs,
                    "{what}: the skin holds no pair"
                );
                let want_forces = forces(&mut system);
                let mut pair = PairKokkos::with_options(pot.clone(), &space, kind.options());
                for eflag in [true, false] {
                    let got = pair.compute(&mut system, &list, eflag);
                    assert_forces(&forces(&mut system), &want_forces, exact_f, &what);
                    if eflag {
                        assert_results(got, want, exact_e, &what);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Physics gate: the kernels agree with the potential, not only with
    // their former selves
    // ------------------------------------------------------------------

    /// On a jittered 256-atom cell, half and full lists: the `eflag`-off
    /// forces are −∂E/∂x of the `eflag`-on energy (central differences,
    /// to `tol` relative), they sum to zero, and the scalar virial is
    /// the trace of the tensor.
    fn check_forces_are_energy_gradient<P: TwoBody + Clone + 'static>(
        pot: P,
        cutoff: f64,
        ntypes: usize,
        tol: f64,
    ) {
        const H: f64 = 1e-5;
        for half in [true, false] {
            let what = format!("{} half={half}", pot.type_name());
            let opts = PairKokkosOptions {
                force_half: Some(half),
                ..Default::default()
            };
            let mut pair = PairKokkos::with_options(pot.clone(), &Space::Serial, opts);
            let mut sites = jittered_sites(4);
            let mut energy = |sites: &(Vec<[f64; 3]>, _)| {
                let (mut system, list) = system_at(&Space::Serial, sites, half, cutoff, ntypes);
                pair.compute(&mut system, &list, true)
            };
            let res = energy(&sites);
            assert!(res.energy != 0.0, "{what}: no pair in range");
            let trace: f64 = res.virial_tensor[..3].iter().sum();
            assert_eq!(res.virial, trace, "{what}: scalar virial vs tensor trace");
            let gradient: Vec<(usize, usize, f64)> = (0..256)
                .step_by(23)
                .flat_map(|i| (0..3).map(move |k| (i, k)))
                .map(|(i, k)| {
                    let x0 = sites.0[i][k];
                    sites.0[i][k] = x0 + H;
                    let e_plus = energy(&sites).energy;
                    sites.0[i][k] = x0 - H;
                    let e_minus = energy(&sites).energy;
                    sites.0[i][k] = x0;
                    (i, k, -(e_plus - e_minus) / (2.0 * H))
                })
                .collect();

            let (mut system, list) = system_at(&Space::Serial, &sites, half, cutoff, ntypes);
            let off = pair.compute(&mut system, &list, false);
            assert_eq!(off, PairResults::default(), "{what}: eflag-off results");
            if half {
                crate::comm::reverse_forces(&mut system.atoms, &system.ghosts);
            }
            let fh = system.atoms.f.h_view();
            for (i, k, want) in gradient {
                let got = fh.at([i, k]);
                assert!(
                    (got - want).abs() <= tol * want.abs().max(1.0),
                    "{what}: f[{i}][{k}] = {got} but -dE/dx = {want}"
                );
            }
            for k in 0..3 {
                let net: f64 = (0..256).map(|i| fh.at([i, k])).sum();
                assert!(net.abs() <= 256.0 * 1e-10, "{what}: net force {net:e}");
            }
        }
    }

    #[test]
    fn forces_are_the_energy_gradient() {
        check_forces_are_energy_gradient(LjCut::single_type(1.0, 1.0, 2.5), 2.5, 1, 1e-6);
        check_forces_are_energy_gradient(lj_mixture(), 2.8, 2, 1e-6);
        check_forces_are_energy_gradient(Morse::new(1.0, 2.0, 1.2, 2.5), 2.5, 1, 1e-6);
    }
}
