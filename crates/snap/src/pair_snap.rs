//! `pair_style snap`: SNAP wired into the `lkk-core` engine.
//!
//! Uses a full neighbor list (the GPU-style choice: §4.3 notes two
//! kernels "benefited from the high arithmetic intensity permitted by
//! GPUs" the way full lists do for LJ) and a `ScatterView` for the
//! neighbor-force scatter.
//!
//! The per-atom computation is *fissioned* into three staged kernels
//! (the TestSNAP restructuring):
//!
//! 1. **ComputeUi** — gather in-cutoff neighbors and accumulate the
//!    per-atom `U`, keeping each neighbor's hypersphere map in the
//!    atom's arena slots;
//! 2. **ComputeYi** — one pass over the `y` table builds the adjoint
//!    `Y` of a block of [`YI_BLOCK`] atoms, eight lanes per product,
//!    from the block kernel's AVX2 copy where the CPU has AVX2 and its
//!    baseline copy elsewhere (`lkk_kokkos::isa`; both store the same
//!    bits); the energy contraction over the `z` table runs only when
//!    `eflag` asks for it;
//! 3. **ComputeDeidrj** — the force contraction: per neighbor, `u`
//!    re-derived from the stage-1 map (storing it instead measured no
//!    faster and seven times the memory, see `docs/performance.md`),
//!    then one reverse sweep through the recursion seeded with `Y`
//!    gives all three directions.
//!
//! Every intermediate lives in half-range planes (`mb ≤ ⌊j/2⌋`, see
//! [`crate::indices`]) pooled in one arena owned by the style. Each
//! stage runs in its own profile region and emits FLOP/byte
//! instants, so traces and the device cost model attribute time per
//! stage instead of one opaque `pair/snap` blob. Device executions
//! additionally log the rich per-kernel event counts
//! (ComputeUi / ComputeYi / ComputeFusedDeidrj) for `lkk-gpusim`.

use crate::context::{SnapContext, SnapKernelConfig, SnapWork, YI_BLOCK};
use crate::hyper::{HyperParams, MapCore};
use lkk_core::neighbor::{NeighborList, TOWARD_J};
use lkk_core::pair::{ForceScatter, PairResults, PairStyle, Tally};
use lkk_core::sim::System;
use lkk_core::style::{PairSpec, StyleRegistry};
use lkk_gpusim::KernelStats;
use lkk_kokkos::{parts, profile, Space};
use std::cell::RefCell;

/// User-facing SNAP parameters.
#[derive(Debug, Clone)]
pub struct SnapParams {
    pub twojmax: usize,
    pub rcut: f64,
    pub rfac0: f64,
    pub rmin0: f64,
    /// Seed for the synthetic β coefficients.
    pub beta_seed: u64,
}

impl Default for SnapParams {
    fn default() -> Self {
        SnapParams {
            twojmax: 8,
            rcut: 4.7,
            rfac0: 0.99363,
            rmin0: 0.0,
            beta_seed: 2025,
        }
    }
}

/// The SNAP pair style.
pub struct PairSnap {
    pub ctx: SnapContext,
    pub config: SnapKernelConfig,
    /// Per-element neighbor weights `w_j` (eq. 2); index by atom type.
    /// Defaults to `[1.0]` (single element, the paper's benchmarks).
    pub type_weights: Vec<f64>,
    name: String,
    scatter: ForceScatter,
    /// Staged intermediates persisting across the fissioned stages
    /// (and across steps: capacities reach steady state after warmup).
    arena: Arena,
}

/// Every atom's staged intermediates as pooled planes: the stage-1
/// neighbor gather and hypersphere maps in CSR slots that mirror the
/// neighbor list's rows, the accumulated `U` and the stage-2 adjoint
/// `Y` by atom. Sized from the list, grown never shrunk.
#[derive(Default)]
struct Arena {
    /// Atom `i` owns slots `first[i]..first[i+1]` (its list row's
    /// length) and uses the first `nn[i]` (its in-cutoff neighbors).
    first: Vec<usize>,
    nn: Vec<u32>,
    rel: Vec<[f64; 3]>,
    ids: Vec<u32>,
    wts: Vec<f64>,
    geom: Vec<MapCore>,
    /// `u_len` values per atom.
    utot_r: Vec<f64>,
    utot_i: Vec<f64>,
    y_r: Vec<f64>,
    y_i: Vec<f64>,
    grow_count: u64,
}

/// Replace `v` by a zeroed plane with headroom if it is shorter than
/// `need`. Contents are per-step intermediates, so nothing is copied,
/// and a fresh zeroed allocation leaves first touch to the workers.
fn grow<T: Clone + Default>(v: &mut Vec<T>, need: usize, grow_count: &mut u64) {
    if v.len() < need {
        *v = vec![T::default(); need + need / 8];
        *grow_count += 1;
    }
}

impl Arena {
    /// Lay the slots out along `list`'s rows and make every plane large
    /// enough for this step's launches.
    fn reserve(&mut self, list: &NeighborList, nlocal: usize, u_len: usize) {
        let grows = &mut self.grow_count;
        grow(&mut self.first, nlocal + 1, grows);
        let rows = list.rows();
        for i in 0..nlocal {
            self.first[i + 1] = self.first[i] + rows.len(i);
        }
        let slots = self.first[nlocal];
        grow(&mut self.nn, nlocal, grows);
        grow(&mut self.rel, slots, grows);
        grow(&mut self.ids, slots, grows);
        grow(&mut self.wts, slots, grows);
        grow(&mut self.geom, slots, grows);
        grow(&mut self.utot_r, nlocal * u_len, grows);
        grow(&mut self.utot_i, nlocal * u_len, grows);
        grow(&mut self.y_r, nlocal * u_len, grows);
        grow(&mut self.y_i, nlocal * u_len, grows);
    }
}

/// Round to the nearest multiple of 2⁻³² (exact for any physically
/// sized force: |v|·2³² stays far below 2⁵³, and scaling by a power of
/// two is lossless). Sums of such multiples are themselves exact, so
/// scatter accumulation order stops mattering.
#[inline]
fn quantize_2p32(v: f64) -> f64 {
    const SCALE: f64 = 4294967296.0; // 2^32
    (v * SCALE).round() * (1.0 / SCALE)
}

/// Thread-local scratch keyed on `(u_len, twojmax, generation)` so two
/// SNAP styles with different truncation orders (or freshly rebuilt
/// contraction tables) on one thread can never alias stale scratch.
struct ScratchSlot {
    key: (usize, usize, u64),
    scratch: SnapWork,
}

thread_local! {
    static SCRATCH: RefCell<Option<ScratchSlot>> = const { RefCell::new(None) };
}

/// Run `f` with this thread's scratch for `ctx`, (re)allocating if the
/// context key changed.
fn with_scratch<R>(ctx: &SnapContext, f: impl FnOnce(&mut SnapWork) -> R) -> R {
    let key = (ctx.idx.u_len, ctx.idx.twojmax, ctx.generation);
    SCRATCH.with(|cell| {
        let mut borrow = cell.borrow_mut();
        let slot = match borrow.as_mut() {
            Some(slot) if slot.key == key => slot,
            _ => {
                *borrow = Some(ScratchSlot {
                    key,
                    scratch: ctx.alloc_work(),
                });
                borrow.as_mut().unwrap()
            }
        };
        f(&mut slot.scratch)
    })
}

impl PairSnap {
    pub fn new(params: SnapParams, _space: &Space) -> Self {
        let hyper = HyperParams {
            rcut: params.rcut,
            rmin0: params.rmin0,
            rfac0: params.rfac0,
            weight: 1.0,
        };
        let beta = SnapContext::synthetic_beta(params.twojmax, params.beta_seed);
        PairSnap {
            ctx: SnapContext::new(params.twojmax, hyper, beta),
            config: SnapKernelConfig::default(),
            type_weights: vec![1.0],
            name: "snap".into(),
            scatter: ForceScatter::default(),
            arena: Arena::default(),
        }
    }

    /// Set per-element neighbor weights (multi-component SNAP).
    pub fn with_type_weights(mut self, weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty());
        self.type_weights = weights;
        self
    }

    pub fn with_config(mut self, config: SnapKernelConfig) -> Self {
        self.config = config;
        self
    }

    /// Arena plane and scatter buffer growths so far (flat in steady
    /// state, like [`NeighborList::grow_count`]).
    pub fn grow_count(&self) -> u64 {
        self.arena.grow_count + self.scatter_grow_count()
    }

    /// Register `snap` (and `snap/kk`) in a style registry.
    /// `pair_style snap <twojmax> <rcut>`.
    pub fn register(registry: &mut StyleRegistry) {
        registry.register_pair("snap", |spec: &PairSpec, space: &Space| {
            let twojmax = spec
                .style_args
                .first()
                .map(|s| s.parse::<usize>())
                .transpose()
                .map_err(|e| format!("bad twojmax: {e}"))?
                .unwrap_or(8);
            let rcut = spec.arg_f64(1).unwrap_or(4.7);
            let params = SnapParams {
                twojmax,
                rcut,
                ..Default::default()
            };
            Ok(Box::new(PairSnap::new(params, space)))
        });
    }

    fn note_stats(&self, space: &Space, nlocal: f64, avg_neigh: f64, list: &NeighborList) {
        if !space.is_device() {
            return;
        }
        let ctx = &self.ctx;
        let u_bytes = ctx.u_bytes_per_atom();

        let mut ui = KernelStats::new("ComputeUi");
        // Parallelism over atoms × neighbor-batches.
        ui.work_items = nlocal * (avg_neigh / self.config.ui_batch.max(1) as f64).max(1.0);
        ui.flops = nlocal * ctx.ui_flops_per_atom(avg_neigh);
        ui.atomic_f64_ops = nlocal * ctx.ui_atomics_per_atom(avg_neigh, self.config.ui_batch);
        ui.dram_bytes = nlocal * (u_bytes + avg_neigh * 28.0);
        ui.working_set_bytes = u_bytes * 32.0; // a tile of atoms' U in flight
                                               // Scratch stages one row of u per thread plus the batch
                                               // accumulator (§4.3.3: "explicitly cached intermediate values
                                               // in Kokkos scratchpad memory") — the team's footprint is what
                                               // bounds occupancy in Fig. 3.
        ui.scratch_bytes_per_team = (ctx.idx.twojmax as f64 + 1.0) * 16.0 * 128.0;
        ui.threads_per_team = 128;
        ui.ilp = self.config.ui_batch as f64;
        space.note_kernel(ui);

        let mut yi = KernelStats::new("ComputeYi");
        yi.work_items = nlocal * ctx.idx.n_bispectrum() as f64;
        yi.flops = nlocal * ctx.yi_flops_per_atom();
        yi.dram_bytes = nlocal * 2.0 * u_bytes;
        // Each inner contraction touches ~48 bytes: U_j1/U_j2/Y loads
        // (subject to working-set spill) plus the warp-uniform
        // coupling-table loads, which are always cache-resident and are
        // the only part atom-batching amortizes (§4.3.4: "reduce the
        // number of accesses to these look-up tables relative to loads
        // of U_j. ... This batching does not change the limiter, L1
        // cache throughput").
        let l1_per_atom = ctx.yi_inner_ops_per_atom() * 48.0;
        let batch = self.config.yi_batch.max(1) as f64;
        yi.reused_bytes = nlocal * l1_per_atom * 0.5;
        yi.l1_only_bytes = nlocal * l1_per_atom * 0.5 / batch;
        // The Yi working set is the per-tile set of U matrices
        // (yi_tile atoms × the full U) — the §4.3.2 tiling knob.
        yi.working_set_bytes = u_bytes * self.config.yi_tile as f64;
        space.note_kernel(yi);

        let mut dei = KernelStats::new(if self.config.fuse_deidrj {
            "ComputeFusedDeidrj"
        } else {
            "ComputeDeidrj"
        });
        dei.work_items = nlocal * avg_neigh;
        dei.flops = nlocal * avg_neigh * ctx.deidrj_flops_per_neighbor(self.config.fuse_deidrj);
        dei.dram_bytes = nlocal * (avg_neigh * 28.0 + u_bytes);
        dei.atomic_f64_ops = nlocal * avg_neigh * 6.0;
        dei.working_set_bytes = u_bytes * 16.0;
        dei.scratch_bytes_per_team = (ctx.idx.twojmax as f64 + 1.0) * 16.0 * 128.0;
        dei.threads_per_team = 128;
        // The unfused kernel already interleaves u/du work (ILP ~2);
        // fusion adds the third stream (§4.3.4).
        dei.ilp = if self.config.fuse_deidrj { 3.0 } else { 2.0 };
        space.note_kernel(dei);
        let _ = list;
    }
}

impl PairStyle for PairSnap {
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
        self.ctx.hyper.rcut
    }

    fn wants_half_list(&self) -> bool {
        false
    }

    fn needs_reverse_comm(&self) -> bool {
        // Forces are scattered onto ghost neighbors.
        true
    }

    fn scatter_grow_count(&self) -> u64 {
        self.scatter.grow_count()
    }

    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults {
        // All SNAP launches and stats records are tagged under this
        // region (e.g. "step/pair/snap" inside the timestep loop).
        let _snap_region = profile::begin_region("snap");
        let space = system.space.clone();
        system
            .atoms
            .sync(&space, lkk_core::atom::Mask::X | lkk_core::atom::Mask::TYPE);
        let nlocal = system.atoms.nlocal;
        self.scatter.ensure(system.atoms.nall(), &space);
        let ctx = &self.ctx;
        let u_len = ctx.idx.u_len;
        self.arena.reserve(list, nlocal, u_len);
        let Arena {
            first,
            nn,
            rel,
            ids,
            wts,
            geom,
            utot_r,
            utot_i,
            y_r,
            y_i,
            ..
        } = &mut self.arena;
        let first = &first[..];
        let config = &self.config;
        let type_weights = &self.type_weights;
        let walk = list.within(system.atoms.x.view_for(&space), ctx.hyper.rcut);
        let typ = system.atoms.typ.view_for(&space);
        let avg_neigh = if nlocal > 0 {
            list.total_pairs as f64 / nlocal as f64
        } else {
            0.0
        };
        let nlocal_f = nlocal as f64;

        // Stage 1 — ComputeUi: gather in-cutoff neighbors (the
        // divergence pre-filtering: the expensive kernels then run
        // fully convergent), accumulate U, and keep each neighbor's
        // hypersphere map for stage 3.
        {
            let _stage = profile::begin_region("ComputeUi");
            // Atom `i`'s slots, `U` rows and count.
            let slots = (
                parts::csr(rel, first),
                parts::csr(ids, first),
                parts::csr(wts, first),
                parts::csr(geom, first),
            );
            let u = (parts::rows(utot_r, u_len), parts::rows(utot_i, u_len));
            let planes = (slots, u, parts::elements(nn));
            space.parallel_for_parts("PairSnapUi", nlocal, planes, |i, planes| {
                let ((rel, ids, wts, geom), (utot_r, utot_i), nn) = planes;
                let mut n = 0;
                walk.row::<TOWARD_J>(i, |j, d, _| {
                    rel[n] = d;
                    ids[n] = j as u32;
                    let t = typ.at([j]) as usize;
                    wts[n] = *type_weights.get(t).unwrap_or(&1.0);
                    n += 1;
                });
                *nn = n as u32;
                with_scratch(ctx, |scratch| {
                    ctx.compute_ui_into(
                        &rel[..n],
                        Some(&wts[..n]),
                        config.ui_batch,
                        Some(&mut geom[..n]),
                        utot_r,
                        utot_i,
                        scratch,
                    );
                });
            });
            profile::note_instant(|| {
                ("snap.ui.flops", nlocal_f * ctx.ui_flops_per_atom(avg_neigh))
            });
            profile::note_instant(|| {
                let bytes = nlocal_f * (ctx.u_bytes_per_atom() + avg_neigh * 28.0);
                ("snap.ui.bytes", bytes)
            });
        }

        // Stage 2 — ComputeYi: the work item of every YI_BLOCK-th atom
        // carries its block through the contraction tables (the launch
        // keeps one item per atom, which is what the device model and
        // the fork threshold see); the others have nothing left to do.
        let energy = {
            let _stage = profile::begin_region("ComputeYi");
            let (utot_r, utot_i) = (&utot_r[..], &utot_i[..]);
            let blocks = (
                parts::leader_blocks(&mut y_r[..nlocal * u_len], u_len, YI_BLOCK),
                parts::leader_blocks(&mut y_i[..nlocal * u_len], u_len, YI_BLOCK),
            );
            let e = space.parallel_reduce_parts(
                "PairSnapYi",
                nlocal,
                blocks,
                0.0f64,
                |i, blocks| {
                    let (Some(y_r), Some(y_i)) = blocks else {
                        return 0.0;
                    };
                    let m = YI_BLOCK.min(nlocal - i);
                    let rows = i * u_len..(i + m) * u_len;
                    let e = with_scratch(ctx, |scratch| {
                        let (u_r, u_i) = (&utot_r[rows.clone()], &utot_i[rows]);
                        ctx.compute_yi_block(u_r, u_i, y_r, y_i, eflag, scratch)
                    });
                    e[..m].iter().sum()
                },
                |a, b| a + b,
            );
            profile::note_instant(|| ("snap.yi.flops", nlocal_f * ctx.yi_flops_per_atom()));
            profile::note_instant(|| ("snap.yi.bytes", nlocal_f * 2.0 * ctx.u_bytes_per_atom()));
            e
        };

        // Stage 3 — ComputeDeidrj: per neighbor, `u` from its stage-1
        // map and one reverse sweep seeded with the atom's `Y`.
        let virial = {
            let _stage = profile::begin_region("ComputeDeidrj");
            let (nn, rel, ids, wts, geom) = (&nn[..], &rel[..], &ids[..], &wts[..], &geom[..]);
            let (y_r, y_i) = (&y_r[..], &y_i[..]);
            let v = space.parallel_reduce_parts(
                "PairSnapDeidrj",
                nlocal,
                self.scatter.parts(),
                Tally::default(),
                |i, forces| {
                    let slots = first[i]..first[i] + nn[i] as usize;
                    let (rel, ids) = (&rel[slots.clone()], &ids[slots.clone()]);
                    let (wts, geom) = (&wts[slots.clone()], &geom[slots]);
                    let u = i * u_len..(i + 1) * u_len;
                    let (y_r, y_i) = (&y_r[u.clone()], &y_i[u]);
                    let mut tally = Tally::default();
                    with_scratch(ctx, |scratch| {
                        for (k, &j) in ids.iter().enumerate() {
                            let g = ctx
                                .compute_deidrj_mapped(rel[k], wts[k], &geom[k], y_r, y_i, scratch);
                            // Force on neighbor j: −∂E_i/∂x_j; reaction on i.
                            let f = if config.quantize_scatter {
                                [
                                    quantize_2p32(-g[0]),
                                    quantize_2p32(-g[1]),
                                    quantize_2p32(-g[2]),
                                ]
                            } else {
                                [-g[0], -g[1], -g[2]]
                            };
                            forces.add3(j as usize, f);
                            forces.add3(i, [-f[0], -f[1], -f[2]]);
                            if eflag {
                                // d = x_j − x_i, f the force on j.
                                tally.add_leg(rel[k], f);
                            }
                        }
                    });
                    tally
                },
                Tally::join,
            );
            profile::note_instant(|| {
                let flops = ctx.deidrj_flops_per_neighbor(config.fuse_deidrj);
                ("snap.deidrj.flops", nlocal_f * avg_neigh * flops)
            });
            profile::note_instant(|| {
                let bytes = nlocal_f * (avg_neigh * 28.0 + ctx.u_bytes_per_atom());
                ("snap.deidrj.bytes", bytes)
            });
            v
        };

        // Contraction-table shape counters: pinned at zero tolerance in
        // the perf baseline (construction-once invariant — `builds`
        // must stay 1).
        let t = &ctx.tables;
        profile::note_counter(|| ("snap.table.z_rows", t.z.rows() as f64));
        profile::note_counter(|| ("snap.table.z_pairs", t.z.w.len() as f64));
        profile::note_counter(|| ("snap.table.y_rows", t.y.rows() as f64));
        profile::note_counter(|| ("snap.table.y_pairs", t.y.w.len() as f64));
        profile::note_counter(|| ("snap.table.builds", ctx.table_builds as f64));

        self.scatter.contribute(system);
        self.note_stats(&space, nlocal_f, avg_neigh, list);
        Tally {
            e: energy,
            ..virial
        }
        .results(eflag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkk_core::atom::AtomData;
    use lkk_core::comm::build_ghosts;
    use lkk_core::lattice::{create_velocities, Lattice, LatticeKind};
    use lkk_core::neighbor::{NeighborList, NeighborSettings};
    use lkk_core::sim::Simulation;
    use lkk_core::units::Units;

    fn tungsten_like(n: usize, twojmax: usize, space: Space) -> (System, PairSnap) {
        // bcc lattice, a = 3.16 Å (tungsten), metal-ish units. A short
        // 3.5 Å cutoff (first + second neighbor shells) keeps the test
        // boxes above the 2×cutghost minimum-image limit at n = 3.
        let lat = Lattice::new(LatticeKind::Bcc, 3.16);
        let atoms = AtomData::from_positions(&lat.positions(n, n, n));
        let system =
            System::new(atoms, lat.domain(n, n, n), space.clone()).with_units(Units::metal());
        let params = SnapParams {
            twojmax,
            rcut: 3.5,
            ..Default::default()
        };
        (system, PairSnap::new(params, &space))
    }

    fn compute_forces(system: &mut System, pair: &mut PairSnap) -> (Vec<[f64; 3]>, PairResults) {
        compute_forces_with(system, pair, true)
    }

    /// The deterministic ±0.04 Å bump of the perturbed-lattice tests.
    fn perturb(system: &mut System) {
        let n = system.atoms.nlocal;
        let xh = system.atoms.x.h_view_mut();
        for i in 0..n {
            for k in 0..3 {
                let bump = 0.08 * (((i * 13 + k * 7) % 23) as f64 / 23.0 - 0.5);
                xh.set([i, k], xh.at([i, k]) + bump);
            }
        }
    }

    fn compute_forces_with(
        system: &mut System,
        pair: &mut PairSnap,
        eflag: bool,
    ) -> (Vec<[f64; 3]>, PairResults) {
        let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
        let space = system.space.clone();
        // Perturbed tests may bump atoms past the box faces; ghosts
        // require wrapped owners (PBC makes the wrap force-invariant).
        system.atoms.wrap_positions(&system.domain);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        let res = pair.compute(system, &list, eflag);
        system.atoms.sync(&Space::Serial, lkk_core::atom::Mask::F);
        lkk_core::comm::reverse_forces(&mut system.atoms, &system.ghosts);
        let fh = system.atoms.f.h_view();
        let forces = (0..system.atoms.nlocal)
            .map(|i| [fh.at([i, 0]), fh.at([i, 1]), fh.at([i, 2])])
            .collect();
        (forces, res)
    }

    #[test]
    fn perfect_bcc_has_zero_force_by_symmetry() {
        let (mut system, mut pair) = tungsten_like(3, 4, Space::Threads);
        let (forces, res) = compute_forces(&mut system, &mut pair);
        for f in &forces {
            for c in f {
                assert!(c.abs() < 1e-9, "residual {c}");
            }
        }
        assert!(res.energy.is_finite());
    }

    #[test]
    fn total_force_is_zero_on_perturbed_lattice() {
        let (mut system, mut pair) = tungsten_like(3, 6, Space::Threads);
        // Deterministic perturbation.
        {
            let n = system.atoms.nlocal;
            let xh = system.atoms.x.h_view_mut();
            for i in 0..n {
                for k in 0..3 {
                    let bump = 0.08 * (((i * 13 + k * 7) % 23) as f64 / 23.0 - 0.5);
                    let v = xh.at([i, k]) + bump;
                    xh.set([i, k], v);
                }
            }
        }
        let (forces, _) = compute_forces(&mut system, &mut pair);
        for k in 0..3 {
            let total: f64 = forces.iter().map(|f| f[k]).sum();
            assert!(total.abs() < 1e-8, "net force {total}");
        }
        // Some atoms actually feel force.
        assert!(forces.iter().any(|f| f[0].abs() > 1e-8));
    }

    #[test]
    fn forces_match_finite_difference_of_total_energy() {
        let (mut system, mut pair) = tungsten_like(3, 4, Space::Serial);
        {
            let n = system.atoms.nlocal;
            let xh = system.atoms.x.h_view_mut();
            for i in 0..n {
                for k in 0..3 {
                    let bump = 0.1 * (((i * 19 + k * 5) % 17) as f64 / 17.0 - 0.5);
                    let v = xh.at([i, k]) + bump;
                    xh.set([i, k], v);
                }
            }
        }
        let (forces, _) = compute_forces(&mut system, &mut pair);
        // FD on atom 3, all directions. Rebuild ghosts from scratch at
        // each displacement (positions feed ghosts).
        let h = 1e-5;
        for (dir, &analytic) in forces[3].iter().enumerate() {
            let mut es = [0.0f64; 2];
            for (s, sign) in [(0usize, 1.0f64), (1, -1.0)] {
                let (mut sys2, mut pair2) = tungsten_like(3, 4, Space::Serial);
                {
                    let n = sys2.atoms.nlocal;
                    let xh = sys2.atoms.x.h_view_mut();
                    for i in 0..n {
                        for k in 0..3 {
                            let bump = 0.1 * (((i * 19 + k * 5) % 17) as f64 / 17.0 - 0.5);
                            let v = xh.at([i, k]) + bump;
                            xh.set([i, k], v);
                        }
                    }
                    let v = xh.at([3, dir]) + sign * h;
                    xh.set([3, dir], v);
                }
                let (_, res) = compute_forces(&mut sys2, &mut pair2);
                es[s] = res.energy;
            }
            let fd = -(es[0] - es[1]) / (2.0 * h);
            assert!(
                (analytic - fd).abs() < 1e-6 * fd.abs().max(1e-3),
                "dir {dir}: analytic {analytic} vs fd {fd}"
            );
        }
    }

    #[test]
    fn spaces_agree() {
        let configs = [
            Space::Serial,
            Space::Threads,
            Space::device(lkk_gpusim::GpuArch::h100()),
        ];
        let mut reference: Option<(Vec<[f64; 3]>, f64)> = None;
        for space in configs {
            let (mut system, mut pair) = tungsten_like(3, 4, space);
            {
                let n = system.atoms.nlocal;
                let xh = system.atoms.x.h_view_mut();
                for i in 0..n {
                    let bump = 0.05 * ((i % 7) as f64 / 7.0 - 0.5);
                    let v = xh.at([i, 0]) + bump;
                    xh.set([i, 0], v);
                }
            }
            let (forces, res) = compute_forces(&mut system, &mut pair);
            match &reference {
                None => reference = Some((forces, res.energy)),
                Some((rf, re)) => {
                    assert!((res.energy - re).abs() < 1e-9 * re.abs().max(1.0));
                    for (a, b) in forces.iter().zip(rf) {
                        for k in 0..3 {
                            assert!(
                                (a[k] - b[k]).abs() < 1e-9,
                                "{} vs {} (diff {:.3e})",
                                a[k],
                                b[k],
                                (a[k] - b[k]).abs()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn device_logs_snap_kernels() {
        let space = Space::device(lkk_gpusim::GpuArch::h100());
        let ctx = space.device_ctx().unwrap().clone();
        let (mut system, mut pair) = tungsten_like(3, 4, space);
        let _ = compute_forces(&mut system, &mut pair);
        let agg = ctx.log.aggregate();
        for name in ["ComputeUi", "ComputeYi", "ComputeFusedDeidrj"] {
            let k = agg
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(k.flops > 0.0, "{name} has no flops");
        }
    }

    #[test]
    fn nve_with_snap_conserves_energy() {
        let space = Space::Threads;
        let (mut system, pair) = tungsten_like(3, 4, space);
        create_velocities(&mut system.atoms, &Units::metal(), 300.0, 999);
        let mut sim = Simulation::new(system, Box::new(pair));
        sim.dt = 0.001;
        sim.setup();
        let e0 = sim.total_energy();
        sim.run(20);
        let e1 = sim.total_energy();
        let drift = ((e1 - e0) / sim.system.atoms.nlocal as f64).abs();
        assert!(drift < 5e-6, "per-atom drift {drift} eV");
    }

    /// `eflag` off skips the energy contraction and the virial tally and
    /// nothing else: same forces to the bit on every space, default
    /// results.
    #[test]
    fn eflag_off_changes_no_force_bit() {
        for space in [
            Space::Serial,
            Space::Threads,
            Space::device(lkk_gpusim::GpuArch::h100()),
        ] {
            let forces_with = |eflag: bool| {
                let (mut system, mut pair) = tungsten_like(3, 4, space.clone());
                perturb(&mut system);
                let (f, res) = compute_forces_with(&mut system, &mut pair, eflag);
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

    /// PR 14's schedule through SNAP: `run(20)` tallies energy on thermo
    /// steps and its last step, 20 × `run(1)` on every step; same thermo
    /// rows, results and final state to the bit.
    #[test]
    fn energy_only_when_read_changes_no_bit() {
        let sim_with = || {
            let (mut system, pair) = tungsten_like(3, 4, Space::Threads);
            create_velocities(&mut system.atoms, &Units::metal(), 300.0, 999);
            let mut sim = Simulation::new(system, Box::new(pair));
            sim.dt = 0.001;
            sim.thermo_every = 5;
            sim
        };
        let (mut batched, mut stepped) = (sim_with(), sim_with());
        batched.run(20);
        for _ in 0..20 {
            stepped.run(1);
        }
        assert_eq!(batched.thermo.len(), 5, "set-up row + 4 thermo steps");
        assert_eq!(batched.thermo, stepped.thermo);
        assert_eq!(batched.last_results, stepped.last_results);
        assert_ne!(batched.last_results, PairResults::default());
        for sim in [&mut batched, &mut stepped] {
            sim.system
                .atoms
                .sync(&Space::Serial, lkk_core::atom::Mask::ALL);
        }
        let (a, b) = (&batched.system.atoms, &stepped.system.atoms);
        for i in 0..a.nlocal {
            assert_eq!(a.pos(i).map(f64::to_bits), b.pos(i).map(f64::to_bits));
            for (va, vb) in [(&a.v, &b.v), (&a.f, &b.f)] {
                assert_eq!(
                    va.h_view().get3(i).map(f64::to_bits),
                    vb.h_view().get3(i).map(f64::to_bits)
                );
            }
        }
    }

    /// Above the fork threshold the two workers' chunks split a Yi
    /// block (2 662 atoms: the boundary at 1 331 falls inside the block
    /// led by atom 1 328). With the quantized scatter making the force
    /// sums exact, the forked run must repeat the serial one to the bit.
    #[test]
    fn forked_blocks_match_serial_bitwise() {
        let forces_on = |space: Space| {
            let (mut system, pair) = tungsten_like(11, 2, space);
            let mut pair = pair.with_config(SnapKernelConfig {
                quantize_scatter: true,
                ..Default::default()
            });
            let n = system.atoms.nlocal;
            assert!(n >= 2048 && (n / 2) % YI_BLOCK != 0);
            perturb(&mut system);
            let (forces, res) = compute_forces(&mut system, &mut pair);
            (
                forces
                    .iter()
                    .map(|f| f.map(f64::to_bits))
                    .collect::<Vec<_>>(),
                res.energy,
            )
        };
        let (serial, e_serial) = forces_on(Space::Serial);
        let (forked, e_forked) = forces_on(Space::Threads);
        assert_eq!(serial, forked);
        assert!((e_serial - e_forked).abs() <= 1e-12 * e_serial.abs());
    }

    /// The arena sizes its planes from the list on the first call and
    /// then reuses them: no growth in steady state, and a second
    /// evaluation through the recycled planes repeats the first to the
    /// bit. The scatter buffer is pooled with them: rebuilds that move
    /// the ghost count reshape the one view — a growth on the way up to
    /// the peak, counted, then flat.
    #[test]
    fn arena_planes_grow_once_and_are_reused() {
        let (mut system, mut pair) = tungsten_like(3, 4, Space::Threads);
        let (first, _) = compute_forces(&mut system, &mut pair);
        let grown = pair.grow_count();
        assert!(grown > 0);
        let (again, _) = compute_forces(&mut system, &mut pair);
        assert_eq!(pair.grow_count(), grown, "arena grew in steady state");
        assert_eq!(
            first
                .iter()
                .map(|f| f.map(f64::to_bits))
                .collect::<Vec<_>>(),
            again
                .iter()
                .map(|f| f.map(f64::to_bits))
                .collect::<Vec<_>>()
        );

        // A fresh style, first seen at the smaller ghost count: sliding
        // the lattice 0.7 Å along x takes a plane out of the ghost cutoff.
        let (mut system, mut pair) = tungsten_like(3, 2, Space::Threads);
        let nall_after_shift = |system: &mut System, pair: &mut PairSnap, dx: f64| {
            let xh = system.atoms.x.h_view_mut();
            for i in 0..system.atoms.nlocal {
                xh.set([i, 0], xh.at([i, 0]) + dx);
            }
            compute_forces_with(system, pair, false);
            system.atoms.nall()
        };
        let few = nall_after_shift(&mut system, &mut pair, 0.7);
        let many = nall_after_shift(&mut system, &mut pair, -0.7);
        assert!(few < many, "ghost count did not move: {few} vs {many}");
        let warm = pair.grow_count();
        assert!(
            pair.scatter_grow_count() > 0,
            "the scatter view did not survive the nall change"
        );
        for _ in 0..2 {
            assert_eq!(nall_after_shift(&mut system, &mut pair, 0.7), few);
            assert_eq!(nall_after_shift(&mut system, &mut pair, -0.7), many);
        }
        assert_eq!(pair.grow_count(), warm, "pools grew in steady state");
    }

    #[test]
    fn registry_integration() {
        let mut reg = StyleRegistry::core();
        PairSnap::register(&mut reg);
        let spec = PairSpec {
            style_args: vec!["6".into(), "4.2".into()],
            coeffs: vec![],
            ntypes: 1,
        };
        let p = reg
            .create_pair("snap", &spec, &Space::Threads, Some("kk"))
            .unwrap();
        assert_eq!(p.name(), "snap/kk");
        assert_eq!(p.cutoff(), 4.2);
        assert!(!p.wants_half_list());
    }

    #[test]
    fn all_zero_weights_leave_only_self_terms() {
        // With every neighbor weight zero, U reduces to the self term:
        // E = N × E_isolated and all forces vanish identically.
        use lkk_core::domain::Domain;
        let params = SnapParams {
            twojmax: 4,
            rcut: 3.5,
            ..Default::default()
        };
        let positions = vec![
            [8.0, 8.0, 8.0],
            [9.6, 8.2, 7.9],
            [7.4, 9.3, 8.4],
            [8.3, 7.1, 9.2],
        ];
        let mut atoms = AtomData::from_positions(&positions);
        atoms.mass = vec![1.0];
        let space = Space::Serial;
        let mut system = System::new(atoms, Domain::cubic(16.0), space.clone());
        let mut pair = PairSnap::new(params.clone(), &space).with_type_weights(vec![0.0]);
        let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        let res = pair.compute(&mut system, &list, true);
        // Isolated-atom energy via an empty neighborhood.
        let mut scratch = pair.ctx.alloc_scratch();
        pair.ctx.compute_ui(&[], &mut scratch, 1);
        let e_iso = pair.ctx.energy(&scratch);
        assert!(
            (res.energy - 4.0 * e_iso).abs() < 1e-12,
            "{} vs {}",
            res.energy,
            4.0 * e_iso
        );
        let fh = system.atoms.f.h_view();
        for i in 0..4 {
            for k in 0..3 {
                assert!(fh.at([i, k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_forces_match_finite_difference() {
        use lkk_core::domain::Domain;
        let params = SnapParams {
            twojmax: 4,
            rcut: 3.5,
            ..Default::default()
        };
        let positions = vec![
            [8.0, 8.0, 8.0],
            [9.6, 8.2, 7.9],
            [7.4, 9.3, 8.4],
            [9.0, 9.4, 9.1],
        ];
        let types = [0i32, 1, 0, 1];
        let weights = vec![1.0, 0.6];
        let energy_and_forces = |pos: &[[f64; 3]]| -> (f64, Vec<[f64; 3]>) {
            let mut atoms = AtomData::from_positions(pos);
            atoms.mass = vec![1.0, 1.0];
            for (i, &t) in types.iter().enumerate() {
                atoms.typ.h_view_mut().set([i], t);
            }
            let space = Space::Serial;
            let mut system = System::new(atoms, Domain::cubic(16.0), space.clone());
            let mut pair = PairSnap::new(params.clone(), &space).with_type_weights(weights.clone());
            let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
            system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
            let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
            let res = pair.compute(&mut system, &list, true);
            system.atoms.sync(&Space::Serial, lkk_core::atom::Mask::F);
            lkk_core::comm::reverse_forces(&mut system.atoms, &system.ghosts);
            let fh = system.atoms.f.h_view();
            let forces = (0..pos.len())
                .map(|i| [fh.at([i, 0]), fh.at([i, 1]), fh.at([i, 2])])
                .collect();
            (res.energy, forces)
        };
        let (_, forces) = energy_and_forces(&positions);
        let h = 1e-6;
        for a in 0..positions.len() {
            for dir in 0..3 {
                let mut pp = positions.clone();
                let mut pm = positions.clone();
                pp[a][dir] += h;
                pm[a][dir] -= h;
                let fd = -(energy_and_forces(&pp).0 - energy_and_forces(&pm).0) / (2.0 * h);
                assert!(
                    (forces[a][dir] - fd).abs() < 1e-7 * fd.abs().max(1e-4),
                    "atom {a} dir {dir}: {} vs {fd}",
                    forces[a][dir]
                );
            }
        }
    }
}
