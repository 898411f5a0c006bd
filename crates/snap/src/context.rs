//! The four SNAP kernels (§4.3), per atom, on the half-range layout of
//! [`crate::indices`].
//!
//! * [`SnapContext::compute_ui`] — **ComputeUi**: per-(atom, neighbor)
//!   Wigner u-matrices accumulated into the per-atom `U` (eq. 2), with
//!   the neighbor work-batching variant of §4.3.4 (each work item sums
//!   `batch` neighbors locally before the accumulation, cutting the
//!   atomic-add count and exposing ILP).
//! * [`SnapContext::compute_bi`] — the `Z`/`B` triple products
//!   (eq. 3): `B_{j1,j2,j} = Z^j_{j1,j2} : U_j*`.
//! * [`SnapContext::compute_yi`] / [`SnapContext::compute_yi_block`] —
//!   **ComputeYi**: the adjoint matrices `Y_j = Σ βj·Z^j_{j1,j2}`
//!   (eq. 5) in one pass over the `y` table, [`YI_BLOCK`] atoms per
//!   table entry, from a baseline or an AVX2 copy of one kernel source
//!   (`lkk_kokkos::isa`) that store the same bits.
//! * [`SnapContext::compute_deidrj`] — **ComputeDuidrj** +
//!   **ComputeDeidrj** by one reverse sweep: the neighbor's `u` forwards,
//!   `∂(Y·u)/∂(a, b)` backwards through the same recursion
//!   ([`compute_u_adjoint`]), all three directions from a 4 × 3
//!   contraction. §4.3.4's fused-vs-unfused pair exists on the modelled
//!   device only.
//!
//! `F = −dE/dx` holds to round-off: the unit tests compare `B`, `E_i`
//! and `∂E_i/∂x_k` with the full-range, reverse-mode-differentiated
//! direct loops kept in `reference.rs`.

use crate::cg::CgBlock;
use crate::hyper::{HyperParams, MapCore};
use crate::indices::SnapIndices;
use crate::tables::ContractionTables;
use crate::wigner::{compute_u, compute_u_adjoint, RootPq};
use lkk_kokkos::isa;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone id distinguishing `SnapContext` instances (and therefore
/// their contraction tables); thread-local scratch keys on it.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Kernel-strategy knobs (Table 2's experiment axes). Two of them the
/// host pair style executes; the rest describe the modelled device
/// kernels only (`PairSnap::note_stats`, the `snap.*` instants).
#[derive(Debug, Clone, Copy)]
pub struct SnapKernelConfig {
    /// Neighbors handled per ComputeUi work item (1 = unbatched).
    /// **Executed** on the host ([`SnapContext::compute_ui_into`] sums
    /// each batch locally) and an input of the device model (atomic-add
    /// count, ILP).
    pub ui_batch: usize,
    /// Atom tile width for the ComputeYi traversal (the `v` of §4.3.2).
    /// **Device model only**: the working set of the modelled kernel.
    pub yi_tile: usize,
    /// Atoms handled per ComputeYi work item (§4.3.4: amortizes the
    /// warp-uniform coupling-table loads; the arithmetic is identical).
    /// **Device model only**; the host kernel's block width is the
    /// constant [`YI_BLOCK`] (8, both instruction-set copies).
    pub yi_batch: usize,
    /// Fuse the three force directions in ComputeDeidrj. **Device model
    /// only**: it picks the logged kernel's name and flop count. The
    /// host Deidrj has no per-direction recursion to fuse.
    pub fuse_deidrj: bool,
    /// Round every force contribution scattered in ComputeDeidrj to a
    /// multiple of 2⁻³² before adding it. **Executed** on the host. On
    /// that grid, f64 additions of physically-sized forces are *exact*,
    /// so the scattered sums become independent of accumulation order —
    /// the knob that makes SNAP trajectories bitwise identical across
    /// decompositions (see `docs/comm.md`, balancer determinism). Off by
    /// default: it costs ~2⁻³² absolute per contribution and the
    /// committed baselines pin the unquantized bits.
    pub quantize_scatter: bool,
}

impl Default for SnapKernelConfig {
    fn default() -> Self {
        SnapKernelConfig {
            ui_batch: 1,
            yi_tile: 32,
            yi_batch: 1,
            fuse_deidrj: true,
            quantize_scatter: false,
        }
    }
}

/// Atoms one ComputeYi work item of the host pair style carries through
/// each contraction-table entry (§4.3.4's Yi batching on the host clock:
/// the table streams from L2 once per block, every entry's index and
/// weight load feeds all lanes, and the lanes are independent
/// accumulation chains). Eight lanes are two `ymm` registers per
/// accumulator in the AVX2 instantiation of the block kernel, the one
/// that runs where the CPU has it. The baseline (SSE2) copy spills at
/// this width, so a host without AVX2 — every non-x86_64 build included —
/// spends about 25 % more in ComputeYi than at a width of four (31.3 →
/// 38.9 µs per atom). One width serves both copies: the energy total is
/// summed block by block, and its bits may not depend on the instruction
/// set. Chosen from the ablation in `docs/performance.md`;
/// [`SnapKernelConfig::yi_batch`] is the modelled device's axis and does
/// not touch it.
pub const YI_BLOCK: usize = 8;

/// Kernel temporaries, reusable across atoms (§4.3: the serial
/// implementation reused these; parallel execution gives each worker
/// its own copy). Every `u`-shaped array is half-range.
#[derive(Debug, Clone)]
pub struct SnapWork {
    /// Per-neighbor u (and batch accumulator).
    u_r: Vec<f64>,
    u_i: Vec<f64>,
    acc_r: Vec<f64>,
    acc_i: Vec<f64>,
    /// The reverse sweep's adjoint `ū`.
    ubar_r: Vec<f64>,
    ubar_i: Vec<f64>,
    /// `[re | im | −im]` planes of a block's `U`, atom fastest.
    planes: Vec<[f64; YI_BLOCK]>,
}

/// [`SnapWork`] plus one atom's `U` and `Y`: the storage of the
/// one-atom-at-a-time entry points (the pair style keeps `U` and `Y` of
/// every atom in its own planes instead).
#[derive(Debug, Clone)]
pub struct SnapScratch {
    pub work: SnapWork,
    /// Per-atom accumulated U.
    pub utot_r: Vec<f64>,
    pub utot_i: Vec<f64>,
    /// Per-atom adjoint Y (symmetry weights folded in).
    pub y_r: Vec<f64>,
    pub y_i: Vec<f64>,
}

/// Immutable SNAP machinery: indices, tables, and the trained β.
#[derive(Debug, Clone)]
pub struct SnapContext {
    pub idx: SnapIndices,
    pub rootpq: RootPq,
    pub hyper: HyperParams,
    /// CG block per bispectrum triple.
    pub cg: Vec<CgBlock>,
    /// Linear-SNAP coefficients, one per triple (eq. 4).
    pub beta: Vec<f64>,
    /// Self-contribution weight on the U diagonal.
    pub wself: f64,
    /// Flattened sparse contraction tables, built once here and
    /// immutable for the context's lifetime.
    pub tables: ContractionTables,
    /// How many times the tables were constructed (the
    /// construction-once invariant pins this at 1).
    pub table_builds: u64,
    /// Unique context id; thread-local scratch keys on it.
    pub generation: u64,
}

impl SnapContext {
    pub fn new(twojmax: usize, hyper: HyperParams, beta: Vec<f64>) -> Self {
        let idx = SnapIndices::new(twojmax);
        assert_eq!(
            beta.len(),
            idx.n_bispectrum(),
            "need one beta per bispectrum component"
        );
        let cg: Vec<CgBlock> = idx
            .triples
            .iter()
            .map(|&(j1, j2, j)| CgBlock::new(j1, j2, j))
            .collect();
        let tables = ContractionTables::build(&idx, &cg, &beta);
        SnapContext {
            rootpq: RootPq::new(&idx),
            idx,
            hyper,
            cg,
            beta,
            wself: 1.0,
            tables,
            table_builds: 1,
            generation: GENERATION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Deterministic synthetic coefficients (DESIGN.md §2: trained
    /// values are proprietary-ish per material; performance and
    /// force-consistency are independent of them).
    pub fn synthetic_beta(twojmax: usize, seed: u64) -> Vec<f64> {
        let n = SnapIndices::new(twojmax).n_bispectrum();
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Small magnitudes keep forces O(1) in metal-ish units.
                ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2e-3
            })
            .collect()
    }

    pub fn alloc_work(&self) -> SnapWork {
        let n = self.idx.u_len;
        SnapWork {
            u_r: vec![0.0; n],
            u_i: vec![0.0; n],
            acc_r: vec![0.0; n],
            acc_i: vec![0.0; n],
            ubar_r: vec![0.0; n],
            ubar_i: vec![0.0; n],
            planes: vec![[0.0; YI_BLOCK]; ContractionTables::planes_len(&self.idx)],
        }
    }

    pub fn alloc_scratch(&self) -> SnapScratch {
        let n = self.idx.u_len;
        SnapScratch {
            work: self.alloc_work(),
            utot_r: vec![0.0; n],
            utot_i: vec![0.0; n],
            y_r: vec![0.0; n],
            y_i: vec![0.0; n],
        }
    }

    /// ComputeUi: accumulate `U_j(i) = w_self·δ + Σ_k fc(r_k)·w_k·u_j(k)`
    /// over this atom's neighbors (relative positions `neigh`),
    /// `batch` neighbors per local accumulation. All neighbors carry
    /// the context's default weight; multi-element systems use
    /// [`SnapContext::compute_ui_weighted`].
    pub fn compute_ui(&self, neigh: &[[f64; 3]], s: &mut SnapScratch, batch: usize) {
        self.compute_ui_weighted(neigh, None, s, batch)
    }

    /// ComputeUi with an explicit per-neighbor element weight `w_k`
    /// (the `w_j` of eq. 2; per-element in multi-component SNAP).
    pub fn compute_ui_weighted(
        &self,
        neigh: &[[f64; 3]],
        weights: Option<&[f64]>,
        s: &mut SnapScratch,
        batch: usize,
    ) {
        self.compute_ui_into(
            neigh,
            weights,
            batch,
            None,
            &mut s.utot_r,
            &mut s.utot_i,
            &mut s.work,
        );
    }

    /// The ComputeUi body, writing the accumulated `U` into caller-owned
    /// slices (the per-atom planes of the fissioned pipeline) and, given
    /// `geom`, each neighbor's hypersphere map for the staged Deidrj
    /// pass (which then skips the trigonometry; the neighbor's `u` is
    /// cheaper to recompute there than to store, see
    /// `docs/performance.md`). With `batch == 1` the per-chunk local
    /// accumulator is skipped and `U` is accumulated directly — bitwise
    /// identical, since `acc = 0.0 + sfac·u` can only differ from
    /// `sfac·u` in the sign of zero, and `utot` (seeded from `+0.0` and
    /// `wself`) can never be `-0.0`, which makes `utot + (±0.0)`
    /// sign-insensitive.
    #[expect(clippy::too_many_arguments, reason = "one slice per output plane")]
    pub fn compute_ui_into(
        &self,
        neigh: &[[f64; 3]],
        weights: Option<&[f64]>,
        batch: usize,
        mut geom: Option<&mut [MapCore]>,
        utot_r: &mut [f64],
        utot_i: &mut [f64],
        s: &mut SnapWork,
    ) {
        if let Some(w) = weights {
            assert_eq!(w.len(), neigh.len());
        }
        let n_u = self.idx.u_len;
        let (utot_r, utot_i) = (&mut utot_r[..n_u], &mut utot_i[..n_u]);
        let batch = batch.max(1);
        utot_r.fill(0.0);
        utot_i.fill(0.0);
        // Self term on the stored half of the diagonals.
        for j in 0..=self.idx.twojmax {
            for ma in 0..=j / 2 {
                utot_r[self.idx.u_index(j, ma, ma)] = self.wself;
            }
        }
        for (c_idx, chunk) in neigh.chunks(batch).enumerate() {
            // Local (register-like) accumulation over the batch —
            // exactly the "sum over neighbors locally before performing
            // the atomic addition" optimization of §4.3.4.
            let (acc_r, acc_i) = if batch == 1 {
                (&mut *utot_r, &mut *utot_i)
            } else {
                s.acc_r.fill(0.0);
                s.acc_i.fill(0.0);
                (&mut s.acc_r[..], &mut s.acc_i[..])
            };
            for (k_in, d) in chunk.iter().enumerate() {
                let k = c_idx * batch + k_in;
                let core = self.hyper.map_core(*d);
                let sfac = core.ck.sfac * weights.map_or(1.0, |ws| ws[k]);
                if let Some(geom) = geom.as_mut() {
                    geom[k] = core;
                }
                compute_u(&self.idx, &self.rootpq, &core.ck, &mut s.u_r, &mut s.u_i);
                for iu in 0..n_u {
                    acc_r[iu] += sfac * s.u_r[iu];
                    acc_i[iu] += sfac * s.u_i[iu];
                }
            }
            if batch > 1 {
                for iu in 0..n_u {
                    utot_r[iu] += s.acc_r[iu];
                    utot_i[iu] += s.acc_i[iu];
                }
            }
        }
    }

    /// Load the `U` of `m ≤ YI_BLOCK` atoms (atom `l` at
    /// `utot[l·u_len..]`) into `[re | im | −im]` planes, idle lanes zeroed.
    #[inline(always)]
    fn load_planes(
        &self,
        m: usize,
        utot_r: &[f64],
        utot_i: &[f64],
        planes: &mut [[f64; YI_BLOCK]],
    ) {
        let n = self.idx.u_len;
        assert!(m <= YI_BLOCK && utot_r.len() >= m * n && utot_i.len() >= m * n);
        let (re, im) = planes.split_at_mut(n);
        let (im, neg) = im.split_at_mut(n);
        for i in 0..n {
            for l in 0..YI_BLOCK {
                let (ur, ui) = if l < m {
                    (utot_r[l * n + i], utot_i[l * n + i])
                } else {
                    (0.0, 0.0)
                };
                re[i][l] = ur;
                im[i][l] = ui;
                neg[i][l] = -ui;
            }
        }
    }

    /// `B_{j1,j2,j} = Z : U*` (eq. 3) of every lane of the loaded planes,
    /// one triple at a time, in triple order.
    #[inline(always)]
    fn walk_bi(&self, planes: &[[f64; YI_BLOCK]], mut each: impl FnMut(usize, [f64; YI_BLOCK])) {
        let (tbl, n) = (&self.tables, self.idx.u_len);
        let (mut t, mut b) = (0, [0.0; YI_BLOCK]);
        tbl.z.walk(planes, |r, zr, zi| {
            let iu = tbl.z_iu[r] as usize;
            for l in 0..YI_BLOCK {
                // Re(z · conj(U)).
                b[l] += zr[l] * planes[iu][l] + zi[l] * planes[n + iu][l];
            }
            if r + 1 == tbl.z_triple[t + 1] as usize {
                each(t, b);
                (t, b) = (t + 1, [0.0; YI_BLOCK]);
            }
        });
    }

    /// The bispectrum components of the current `utot` (eq. 3), via the
    /// flattened contraction tables.
    pub fn compute_bi(&self, s: &SnapScratch) -> Vec<f64> {
        let mut planes = vec![[0.0; YI_BLOCK]; ContractionTables::planes_len(&self.idx)];
        self.load_planes(1, &s.utot_r, &s.utot_i, &mut planes);
        let mut out = Vec::with_capacity(self.idx.n_bispectrum());
        self.walk_bi(&planes, |_, b| out.push(b[0]));
        out
    }

    /// Per-atom energy `E_i = Σ β·B` (eq. 4).
    pub fn energy(&self, s: &SnapScratch) -> f64 {
        self.compute_bi(s)
            .iter()
            .zip(&self.beta)
            .map(|(b, beta)| b * beta)
            .sum()
    }

    /// Staged ComputeYi for a block of `utot_r.len() / u_len ≤ YI_BLOCK`
    /// atoms whose `U` and `Y` lie back to back in the caller's planes
    /// (all four slices the same length): one pass over the `y` table
    /// builds every atom's adjoint `Y = Σ βj·Z` (symmetry weights folded
    /// in, so Deidrj is a plain dot product over the stored half), and
    /// with `eflag` a pass over the `z` table contracts `E_i = Σ β·B`.
    /// Returns the `E_i` (zeros without `eflag`).
    ///
    /// Runs from the copy of the block kernel this CPU supports
    /// (`isa::active()`, `lkk_kokkos::isa`): the lanes are independent and
    /// `fma` is never enabled, so every instantiation stores the same bits.
    pub fn compute_yi_block(
        &self,
        utot_r: &[f64],
        utot_i: &[f64],
        y_r: &mut [f64],
        y_i: &mut [f64],
        eflag: bool,
        s: &mut SnapWork,
    ) -> [f64; YI_BLOCK] {
        isa::active().call(yi_block, (self, [utot_r, utot_i], [y_r, y_i], eflag, s))
    }

    /// ComputeYi: the adjoint `Y` of the scratch's `utot`, into the
    /// scratch's `y`.
    pub fn compute_yi(&self, s: &mut SnapScratch) {
        let (work, y_r, y_i) = (&mut s.work, &mut s.y_r, &mut s.y_i);
        self.compute_yi_block(&s.utot_r, &s.utot_i, y_r, y_i, false, work);
    }

    /// ComputeDuidrj + ComputeDeidrj for one neighbor at relative
    /// position `d`: returns `∂E_i/∂x_k` (the gradient with respect to
    /// the *neighbor*'s position).
    pub fn compute_deidrj(&self, d: [f64; 3], s: &mut SnapScratch) -> [f64; 3] {
        self.compute_deidrj_weighted(d, 1.0, s)
    }

    /// [`SnapContext::compute_deidrj`] with the neighbor's element
    /// weight `w_k` (must match the weight used in ComputeUi).
    pub fn compute_deidrj_weighted(
        &self,
        d: [f64; 3],
        weight: f64,
        s: &mut SnapScratch,
    ) -> [f64; 3] {
        let core = self.hyper.map_core(d);
        self.compute_deidrj_mapped(d, weight, &core, &s.y_r, &s.y_i, &mut s.work)
    }

    /// Deidrj for one neighbor whose hypersphere map ComputeUi kept
    /// ([`SnapContext::compute_ui_into`]), so the trigonometry is not
    /// re-derived: `Σ_half Re(conj(y)·∂(sfac·u)/∂x_k)` as
    /// `dsfac_k·(y·u) + sfac·G·(da_k, db_k)` — the `u` recursion, one dot
    /// product, and `G = ∂(y·u)/∂(a, b)` from one reverse sweep.
    pub fn compute_deidrj_mapped(
        &self,
        d: [f64; 3],
        weight: f64,
        core: &MapCore,
        y_r: &[f64],
        y_i: &[f64],
        s: &mut SnapWork,
    ) -> [f64; 3] {
        let mut ckd = self.hyper.derivatives_from(d, core);
        ckd.ck.sfac *= weight;
        for dk in &mut ckd.dsfac {
            *dk *= weight;
        }
        compute_u(&self.idx, &self.rootpq, &ckd.ck, &mut s.u_r, &mut s.u_i);
        let n = self.idx.u_len;
        let (y_r, y_i) = (&y_r[..n], &y_i[..n]);
        let mut yu = 0.0;
        for iu in 0..n {
            yu += y_r[iu] * s.u_r[iu] + y_i[iu] * s.u_i[iu];
        }
        let g = compute_u_adjoint(
            &self.idx,
            &self.rootpq,
            &ckd.ck,
            (&s.u_r, &s.u_i),
            (y_r, y_i),
            (&mut s.ubar_r, &mut s.ubar_i),
        );
        std::array::from_fn(|k| {
            let ydu =
                g[0] * ckd.da_r[k] + g[1] * ckd.da_i[k] + g[2] * ckd.db_r[k] + g[3] * ckd.db_i[k];
            ckd.dsfac[k] * yu + ckd.ck.sfac * ydu
        })
    }

    /// Full per-atom evaluation: energy and the gradient with respect
    /// to each neighbor position.
    pub fn atom_energy_forces(
        &self,
        neigh: &[[f64; 3]],
        s: &mut SnapScratch,
        cfg: &SnapKernelConfig,
    ) -> (f64, Vec<[f64; 3]>) {
        self.compute_ui(neigh, s, cfg.ui_batch);
        let e = self.energy(s);
        self.compute_yi(s);
        let grads = neigh.iter().map(|&d| self.compute_deidrj(d, s)).collect();
        (e, grads)
    }

    // ---- Event-count models for the device cost model (measured
    //      structural quantities; see lkk-gpusim). ----

    /// FP64 ops for ComputeUi at `nneigh` neighbors per atom.
    pub fn ui_flops_per_atom(&self, nneigh: f64) -> f64 {
        // Recursion: ~20 flops per u element per neighbor + accumulate.
        nneigh * self.idx.u_full_len as f64 * 22.0
    }

    /// FP64 atomic adds for ComputeUi at batch `b`: 2 per complex
    /// element per neighbor-batch group, after the warp-level
    /// aggregation the production kernel always performs (÷ warp/4).
    pub fn ui_atomics_per_atom(&self, nneigh: f64, batch: usize) -> f64 {
        (nneigh / batch.max(1) as f64).ceil() * self.idx.u_full_len as f64 * 2.0 / 8.0
    }

    /// Inner CG-contraction iterations of ComputeYi per atom (the
    /// quadruple loop's trip count).
    pub fn yi_inner_ops_per_atom(&self) -> f64 {
        let mut ops = 0.0;
        for &(j1, j2, j) in self.idx.triples.iter() {
            let inner = ((j1 + 1) * (j2 + 1)) as f64;
            ops += ((j + 1) * (j + 1)) as f64 * inner;
        }
        ops
    }

    /// FP64 ops for ComputeYi: ~10 per inner contraction (complex
    /// multiply-accumulate with two CG weights). The byte:flop ratio is
    /// what makes Yi "limited by L1 cache throughput" (§4.3.4).
    pub fn yi_flops_per_atom(&self) -> f64 {
        self.yi_inner_ops_per_atom() * 10.0
    }

    /// Bytes of U data ComputeYi reads per atom (the L1-resident
    /// working set of §4.3.2).
    pub fn u_bytes_per_atom(&self) -> f64 {
        (self.idx.u_full_len * 16) as f64
    }

    /// FP64 ops for one Deidrj evaluation per neighbor. The fused
    /// variant computes `u` once for all three directions (§4.3.4:
    /// "the redundant work was re-computing U_j and re-loading Y_j");
    /// the unfused variant re-runs the `u` recursion per direction.
    pub fn deidrj_flops_per_neighbor(&self, fused: bool) -> f64 {
        let u = self.idx.u_full_len as f64 * 22.0;
        let du_all = self.idx.u_full_len as f64 * 60.0;
        let contract = self.idx.u_full_len as f64 * 12.0;
        if fused {
            u + du_all + contract
        } else {
            // Per-direction launches partially reuse u rows in
            // registers; ~2.5 of the 3 recursion passes are redundant.
            2.5 * u + du_all + contract
        }
    }
}

/// `(context, [U re, U im], [Y re, Y im], eflag, scratch)`: what one Yi
/// block reads and writes, as the one argument `Isa::call` passes.
type YiBlockArgs<'a> = (
    &'a SnapContext,
    [&'a [f64]; 2],
    [&'a mut [f64]; 2],
    bool,
    &'a mut SnapWork,
);

/// The body of [`SnapContext::compute_yi_block`], written once and
/// instantiated per instruction set through `Isa::call`: the planes'
/// transpose, the `y`-table walk and, under `eflag`, the energy walk.
/// The table walk is the loop that pays for wider lanes.
#[inline(always)]
fn yi_block((ctx, [utot_r, utot_i], [y_r, y_i], eflag, s): YiBlockArgs<'_>) -> [f64; YI_BLOCK] {
    let n = ctx.idx.u_len;
    let m = utot_r.len() / n;
    assert_eq!(
        [utot_r.len(), utot_i.len(), y_r.len(), y_i.len()],
        [m * n; 4]
    );
    ctx.load_planes(m, utot_r, utot_i, &mut s.planes);
    ctx.tables.y.walk(&s.planes, |r, zr, zi| {
        for l in 0..m {
            y_r[l * n + r] = zr[l];
            y_i[l * n + r] = zi[l];
        }
    });
    let mut e = [0.0; YI_BLOCK];
    if eflag {
        ctx.walk_bi(&s.planes, |t, b| {
            for l in 0..YI_BLOCK {
                e[l] += b[l] * ctx.beta[t];
            }
        });
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Reference;
    use lkk_kokkos::isa::Isa;

    fn ctx(twojmax: usize) -> SnapContext {
        SnapContext::new(
            twojmax,
            HyperParams::default(),
            SnapContext::synthetic_beta(twojmax, 42),
        )
    }

    fn cluster() -> Vec<[f64; 3]> {
        vec![
            [1.2, 0.3, -0.4],
            [-0.9, 1.5, 0.8],
            [0.4, -1.1, 1.9],
            [2.2, 1.0, 0.5],
            [-1.5, -1.2, -0.7],
        ]
    }

    #[test]
    fn bispectrum_is_rotation_invariant() {
        let c = ctx(6);
        let mut s = c.alloc_scratch();
        let neigh = cluster();
        c.compute_ui(&neigh, &mut s, 1);
        let b0 = c.compute_bi(&s);
        // Rotate all neighbors by a non-trivial rotation (ZYX Euler).
        let (a, b, g) = (0.7, -1.1, 2.3);
        let (ca, sa) = (f64::cos(a), f64::sin(a));
        let (cb, sb) = (f64::cos(b), f64::sin(b));
        let (cc, sc) = (f64::cos(g), f64::sin(g));
        let rot = |v: [f64; 3]| -> [f64; 3] {
            // Rz(a) then Ry(b) then Rx(g).
            let v1 = [ca * v[0] - sa * v[1], sa * v[0] + ca * v[1], v[2]];
            let v2 = [cb * v1[0] + sb * v1[2], v1[1], -sb * v1[0] + cb * v1[2]];
            [v2[0], cc * v2[1] - sc * v2[2], sc * v2[1] + cc * v2[2]]
        };
        let rotated: Vec<[f64; 3]> = neigh.iter().map(|&v| rot(v)).collect();
        c.compute_ui(&rotated, &mut s, 1);
        let b1 = c.compute_bi(&s);
        for (x, y) in b0.iter().zip(&b1) {
            assert!(
                (x - y).abs() < 1e-9 * x.abs().max(1.0),
                "B not invariant: {x} vs {y}"
            );
        }
        // ... and not all zero.
        assert!(b0.iter().any(|x| x.abs() > 1e-6));
    }

    #[test]
    fn bispectrum_invariant_under_neighbor_permutation() {
        let c = ctx(4);
        let mut s = c.alloc_scratch();
        let neigh = cluster();
        c.compute_ui(&neigh, &mut s, 1);
        let b0 = c.compute_bi(&s);
        let mut perm = neigh.clone();
        perm.reverse();
        c.compute_ui(&perm, &mut s, 1);
        let b1 = c.compute_bi(&s);
        for (x, y) in b0.iter().zip(&b1) {
            assert!((x - y).abs() < 1e-10 * x.abs().max(1.0));
        }
    }

    #[test]
    fn ui_batching_is_exact() {
        let c = ctx(6);
        let mut s = c.alloc_scratch();
        let neigh = cluster();
        c.compute_ui(&neigh, &mut s, 1);
        let u1: Vec<f64> = s.utot_r.clone();
        for batch in [2usize, 3, 4, 8] {
            c.compute_ui(&neigh, &mut s, batch);
            for (a, b) in u1.iter().zip(&s.utot_r) {
                assert!((a - b).abs() < 1e-12, "batch {batch}");
            }
        }
    }

    #[test]
    fn forces_match_finite_difference_of_energy() {
        let c = ctx(6);
        let mut s = c.alloc_scratch();
        let neigh = cluster();
        let cfg = SnapKernelConfig::default();
        let (_, grads) = c.atom_energy_forces(&neigh, &mut s, &cfg);
        let h = 1e-6;
        for (k_n, _) in neigh.iter().enumerate() {
            for dir in 0..3 {
                let mut np = neigh.clone();
                let mut nm = neigh.clone();
                np[k_n][dir] += h;
                nm[k_n][dir] -= h;
                c.compute_ui(&np, &mut s, 1);
                let ep = c.energy(&s);
                c.compute_ui(&nm, &mut s, 1);
                let em = c.energy(&s);
                let fd = (ep - em) / (2.0 * h);
                let an = grads[k_n][dir];
                assert!(
                    (an - fd).abs() < 1e-8 * fd.abs().max(1e-4),
                    "neighbor {k_n} dir {dir}: analytic {an} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn isolated_atom_has_constant_energy() {
        // With no neighbors, only the self term contributes: energy is
        // a constant offset with zero gradient.
        let c = ctx(4);
        let mut s = c.alloc_scratch();
        let cfg = SnapKernelConfig::default();
        let (e0, grads) = c.atom_energy_forces(&[], &mut s, &cfg);
        assert!(e0.is_finite());
        assert!(grads.is_empty());
    }

    #[test]
    fn neighbor_beyond_cutoff_contributes_nothing() {
        let c = ctx(4);
        let mut s = c.alloc_scratch();
        let near = vec![[1.0, 0.5, -0.2]];
        c.compute_ui(&near, &mut s, 1);
        let e_near = c.energy(&s);
        let with_far = vec![[1.0, 0.5, -0.2], [c.hyper.rcut + 0.5, 0.0, 0.0]];
        c.compute_ui(&with_far, &mut s, 1);
        let e_far = c.energy(&s);
        assert!((e_near - e_far).abs() < 1e-12);
    }

    #[test]
    fn flop_models_scale_sensibly() {
        let c4 = ctx(4);
        let c8 = ctx(8);
        assert!(c8.ui_flops_per_atom(20.0) > 4.0 * c4.ui_flops_per_atom(20.0));
        assert!(c8.yi_flops_per_atom() > c4.yi_flops_per_atom());
        assert!(c8.ui_atomics_per_atom(20.0, 4) < c8.ui_atomics_per_atom(20.0, 1));
        assert!(c8.deidrj_flops_per_neighbor(false) > 1.3 * c8.deidrj_flops_per_neighbor(true));
    }

    /// Neighbor clouds for the oracle tests: `nneigh` points from a
    /// xorshift stream, kept off the origin and inside the cutoff.
    fn cloud(seed: u64, nneigh: usize) -> Vec<[f64; 3]> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..nneigh)
            .map(|_| [1.0 + 2.0 * rnd(), 2.0 * rnd() - 1.0, 2.0 * rnd() - 1.0])
            .collect()
    }

    /// `|a − b| ≤ 1e-12·scale` element by element, `scale` the largest
    /// magnitude in the reference.
    fn assert_close(what: &str, got: &[f64], want: &[f64]) {
        let scale = want.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-12 * scale,
                "{what}[{k}]: {g} vs {w} (scale {scale})"
            );
        }
    }

    /// The half-range pipeline against the full-range oracle on one
    /// neighborhood: `B`, `E_i` and `∂E_i/∂x_k` through both the
    /// one-atom entry points and the staged (mapped, blocked) ones.
    fn check_against_reference(c: &SnapContext, neigh: &[[f64; 3]], wts: &[f64], batch: usize) {
        let want = Reference::new(c).evaluate(neigh, wts);
        let want_grads: Vec<f64> = want.grads.iter().flatten().copied().collect();
        let mut s = c.alloc_scratch();
        c.compute_ui_weighted(neigh, Some(wts), &mut s, batch);
        assert_close("B", &c.compute_bi(&s), &want.b);
        assert_close("E", &[c.energy(&s)], &[want.energy]);
        c.compute_yi(&mut s);
        let grads: Vec<f64> = neigh
            .iter()
            .zip(wts)
            .flat_map(|(&d, &w)| c.compute_deidrj_weighted(d, w, &mut s))
            .collect();
        assert_close("dE/dx", &grads, &want_grads);
        // Staged path on external planes, this atom in every lane of a
        // full block: each lane must reproduce the one-atom result to
        // the bit, and the energies and gradients the oracle's.
        let (n_u, nn) = (c.idx.u_len, neigh.len());
        let mut geom = vec![MapCore::default(); nn];
        let (mut utot_r, mut utot_i) = (vec![0.0; YI_BLOCK * n_u], vec![0.0; YI_BLOCK * n_u]);
        for l in 0..YI_BLOCK {
            c.compute_ui_into(
                neigh,
                Some(wts),
                batch,
                Some(&mut geom),
                &mut utot_r[l * n_u..(l + 1) * n_u],
                &mut utot_i[l * n_u..(l + 1) * n_u],
                &mut s.work,
            );
        }
        for l in 0..YI_BLOCK {
            let lane = l * n_u..(l + 1) * n_u;
            assert_eq!(utot_r[lane.clone()], s.utot_r[..], "U re, lane {l}");
            assert_eq!(utot_i[lane], s.utot_i[..], "U im, lane {l}");
        }
        let (mut y_r, mut y_i) = (vec![0.0; YI_BLOCK * n_u], vec![0.0; YI_BLOCK * n_u]);
        for m in 1..=YI_BLOCK {
            let at = ..m * n_u;
            let (y_rm, y_im) = (&mut y_r[at], &mut y_i[at]);
            let e = c.compute_yi_block(&utot_r[at], &utot_i[at], y_rm, y_im, true, &mut s.work);
            for l in 0..m {
                assert_close("E (block)", &[e[l]], &[want.energy]);
                assert_eq!(e[l].to_bits(), e[0].to_bits(), "lane {l} of {m}");
                for iu in 0..n_u {
                    assert_eq!(y_r[l * n_u + iu].to_bits(), s.y_r[iu].to_bits());
                    assert_eq!(y_i[l * n_u + iu].to_bits(), s.y_i[iu].to_bits());
                }
            }
        }
        let no_e = c.compute_yi_block(&utot_r, &utot_i, &mut y_r, &mut y_i, false, &mut s.work);
        assert_eq!(no_e, [0.0; YI_BLOCK]);
        let grads: Vec<f64> = (0..nn)
            .flat_map(|k| {
                c.compute_deidrj_mapped(
                    neigh[k],
                    wts[k],
                    &geom[k],
                    &y_r[n_u..2 * n_u],
                    &y_i[n_u..2 * n_u],
                    &mut s.work,
                )
            })
            .collect();
        assert_close("dE/dx (staged)", &grads, &want_grads);
    }

    /// Every half-range kernel agrees with the retained full-range
    /// direct loops to ≤ 1e-12 relative on `B`, `E_i` and `∂E_i/∂x_k`,
    /// at every truncation order, weighted and unweighted, for both Ui
    /// batch widths the pair style is run with, and with β zero
    /// patterns in play.
    #[test]
    fn half_range_kernels_match_the_full_range_reference() {
        for twojmax in [2usize, 4, 6, 8] {
            let mut beta = SnapContext::synthetic_beta(twojmax, 11);
            let c_all = SnapContext::new(twojmax, HyperParams::default(), beta.clone());
            // Zero out a pattern of triples to exercise prefiltering.
            beta.iter_mut().step_by(3).for_each(|b| *b = 0.0);
            let c_some = SnapContext::new(twojmax, HyperParams::default(), beta);
            let neigh = cluster();
            for wts in [[1.0; 5], [1.0, 0.7, 1.0, 0.3, 1.0]] {
                for batch in [1usize, 4] {
                    check_against_reference(&c_all, &neigh, &wts, batch);
                    check_against_reference(&c_some, &neigh, &wts, batch);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// The property form of the oracle test (moved here from
        /// `tests/properties.rs`, which cannot see the `cfg(test)`
        /// reference): random neighbor clouds, every truncation order,
        /// zero/nonzero β stripes.
        #[test]
        fn snap_tables_match_direct_loops(
            seed in 0u64..100,
            twojmax in proptest::prop::sample::select(vec![2usize, 4, 6, 8]),
            beta_mask in 0usize..8,
        ) {
            let neigh = cloud(seed, 2 + (seed % 6) as usize);
            let mut beta = SnapContext::synthetic_beta(twojmax, seed ^ 0x5eed);
            // Zero a β stripe (mask 7 keeps all nonzero).
            if beta_mask < 7 {
                beta.iter_mut().skip(beta_mask).step_by(7).for_each(|b| *b = 0.0);
            }
            let c = SnapContext::new(twojmax, HyperParams::default(), beta);
            check_against_reference(&c, &neigh, &vec![1.0; neigh.len()], 1);
        }
    }

    /// The instantiations of the Yi block kernel this host can run: the
    /// baseline, and what `isa::active()` picks when that is something else.
    fn instantiations() -> Vec<Isa> {
        let mut all = vec![Isa::baseline()];
        if isa::active() != Isa::baseline() {
            all.push(isa::active());
        }
        all
    }

    /// The oracle of the Yi kernel's place behind the ISA seam: eight
    /// different atoms, every partial block `m = 1..=YI_BLOCK`, `eflag` on
    /// and off, and every instantiation stores the baseline copy's `Y` and
    /// per-lane energies to the bit.
    #[test]
    fn yi_block_instantiations_agree_bitwise() {
        let names: Vec<&str> = instantiations().iter().map(|isa| isa.name()).collect();
        // Shown by `scripts/ci.sh` (`--nocapture`).
        eprintln!(
            "SNAP Yi block instantiations under test: {}",
            names.join(", ")
        );
        assert_eq!(names.last(), Some(&isa::active().name()));
        let c = ctx(8);
        let n_u = c.idx.u_len;
        let mut work = c.alloc_work();
        let (mut utot_r, mut utot_i) = (vec![0.0; YI_BLOCK * n_u], vec![0.0; YI_BLOCK * n_u]);
        for l in 0..YI_BLOCK {
            let lane = l * n_u..(l + 1) * n_u;
            let (u_r, u_i) = (&mut utot_r[lane.clone()], &mut utot_i[lane]);
            c.compute_ui_into(
                &cloud(100 + l as u64, 12),
                None,
                1,
                None,
                u_r,
                u_i,
                &mut work,
            );
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for m in 1..=YI_BLOCK {
            let at = ..m * n_u;
            for eflag in [true, false] {
                let mut run = |isa: Isa| {
                    let (mut y_r, mut y_i) = (vec![0.0; m * n_u], vec![0.0; m * n_u]);
                    let (u, y) = ([&utot_r[at], &utot_i[at]], [&mut y_r[..], &mut y_i[..]]);
                    let e = isa.call(yi_block, (&c, u, y, eflag, &mut work));
                    (bits(&y_r), bits(&y_i), e.map(f64::to_bits))
                };
                let want = run(Isa::baseline());
                assert_eq!(want.2[0] != 0, eflag, "m = {m}");
                for isa in instantiations() {
                    let got = run(isa);
                    assert_eq!(
                        got,
                        want,
                        "{} against baseline, m = {m}, eflag = {eflag}",
                        isa.name()
                    );
                }
            }
        }
    }

    /// The identity the half-range layout rests on, on the *reference*
    /// path where nothing assumes it: the accumulated `U`, every `Z`
    /// and the adjoint `Y` satisfy
    /// `x(j−mb, j−ma) = (−1)^{mb+ma}·conj x(mb, ma)` to 1e-13.
    #[test]
    fn reference_u_z_y_obey_the_inversion_symmetry() {
        let c = ctx(8);
        let full = Reference::new(&c);
        let neigh = cloud(5, 12);
        let ev = full.evaluate(&neigh, &vec![1.0; neigh.len()]);
        let check = |what: &str, j: usize, at: &dyn Fn(usize, usize) -> (f64, f64), scale: f64| {
            for mb in 0..=j {
                for ma in 0..=j {
                    let sign = if (mb + ma) % 2 == 0 { 1.0 } else { -1.0 };
                    let ((xr, xi), (mr, mi)) = (at(mb, ma), at(j - mb, j - ma));
                    assert!(
                        (mr - sign * xr).abs() <= 1e-13 * scale
                            && (mi + sign * xi).abs() <= 1e-13 * scale,
                        "{what} j={j} mb={mb} ma={ma}: ({xr}, {xi}) vs ({mr}, {mi})"
                    );
                }
            }
        };
        let max_abs = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let (u_scale, y_scale) = (max_abs(&ev.utot_r), max_abs(&ev.y_r));
        for j in 0..=8 {
            let at = |v_r: &[f64], v_i: &[f64], mb, ma| {
                let iu = full.u_index(j, mb, ma);
                (v_r[iu], v_i[iu])
            };
            check(
                "U",
                j,
                &|mb, ma| at(&ev.utot_r, &ev.utot_i, mb, ma),
                u_scale,
            );
            check("Y", j, &|mb, ma| at(&ev.y_r, &ev.y_i, mb, ma), y_scale);
        }
        for (t, &(_, _, j)) in c.idx.triples.iter().enumerate() {
            let z = |mb, ma| full.z_element(t, ma, mb, &ev.utot_r, &ev.utot_i);
            check("Z", j, &z, u_scale * u_scale);
        }
    }

    /// Tables are built exactly once, in the constructor.
    #[test]
    fn tables_built_once_per_context() {
        let c = ctx(4);
        assert_eq!(c.table_builds, 1);
        assert!(!c.tables.z.w.is_empty());
        assert!(!c.tables.y.w.is_empty());
        // Distinct contexts get distinct generations (scratch keys).
        let c2 = ctx(4);
        assert_ne!(c.generation, c2.generation);
    }
}
