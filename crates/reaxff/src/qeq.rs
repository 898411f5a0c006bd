//! Charge equilibration (QEq), §4.2.2-§4.2.3.
//!
//! Minimize `E(q) = Σ χᵢqᵢ + Σ ηᵢqᵢ² + Σ_{i<j} H_ij qᵢqⱼ` subject to
//! `Σ qᵢ = 0`. With `A = H_offdiag + diag(2η)`, the constrained
//! minimizer is obtained from **two Krylov solves** sharing the matrix:
//!
//! ```text
//! A s = −χ,   A t = −1,   q = s − (Σs / Σt)·t.
//! ```
//!
//! The sparse matrix uses the paper's *over-allocated CSR*: row storage
//! is sized by the neighbor-list capacity, "described by four data
//! structures: a flat array of non-zero values, the column offsets for
//! each value, the offset array, and an additional array that specifies
//! the number of non-zero elements per row". Following Appendix B, the
//! row-offset array is 64-bit (`i64`) while column indices and row
//! lengths stay 32-bit.
//!
//! `H` is symmetric and only one side of it is stored, as in LAMMPS'
//! `fix qeq/reaxff`: the fill walks each row's half of the neighbor list
//! (`PairWalk::half_row`, each unordered pair from exactly one of its
//! two rows), so every pair is one entry `U[i][o]` of either triangle,
//! and `A = D + U + Uᵀ`. The SpMV gathers `U·x` into the row's own
//! element and scatters `Uᵀ·x` to the columns through a pooled
//! `ScatterView`.
//!
//! The two CG solves run *fused* (§4.2.3): each iteration performs one
//! dual SpMV that loads the matrix once and applies it to both
//! right-hand sides — the work-batching/ILP pattern of §4.3.4.
//!
//! Consecutive timesteps solve nearly the same system, so the solve
//! does not start from zero: [`ChargeHistory`] keeps the last four
//! converged `s` and `t` per atom (keyed by tag, so the rows follow a
//! neighbor rebuild or a spatial sort) and the initial guess is their
//! cubic / quadratic extrapolation, as in LAMMPS' `fix qeq/reaxff`.
//! That turns ≈ 38 iterations into 6–7 at the same tolerance and the
//! same convergence test. There is one CG routine, [`solve`]: it starts
//! from whatever [`QeqWork::s`] / [`QeqWork::t`] hold, and an empty
//! history leaves them zero — the cold solve every first call is.
//! Matrix, scatter and vectors are pooled ([`QeqMatrix::build`] refills
//! in place, [`QeqWork`] is reused), so a steady-state step allocates
//! nothing here.

use crate::ensure_len;
use crate::nonbonded::{PairTable, PairWalk};
use crate::params::ReaxParams;
use lkk_core::atom::AtomData;
use lkk_core::comm::GhostMap;
use lkk_core::neighbor::NeighborList;
use lkk_kokkos::{parts, ScatterMode, ScatterView, Space};

/// Over-allocated CSR matrix for QEq, one triangle of the symmetric
/// off-diagonal part stored. Persistent: [`QeqMatrix::build`] refills
/// the same storage every step, and only the `nnz[i]` leading slots of
/// a row are ever read, so nothing is zero-filled between steps.
pub struct QeqMatrix {
    pub n: usize,
    /// Allocated slots per row (the neighbor-list capacity).
    pub max_row: usize,
    /// 64-bit row offsets into `vals`/`cols` (Appendix B).
    pub offsets: Vec<i64>,
    /// Actual non-zeros per row (32-bit suffices: bounded by `max_row`).
    pub nnz: Vec<i32>,
    /// Column indices (32-bit; bounded by the matrix rank).
    pub cols: Vec<i32>,
    /// Matrix values: `H_io` of the pairs row `i` keeps (`U`; the entry
    /// `H_oi` of `Uᵀ` is the same number and is not stored).
    pub vals: Vec<f64>,
    /// Diagonal `2ηᵢ`.
    pub diag: Vec<f64>,
    /// The SpMV's `Uᵀ·x` for both right-hand sides, `n × 2`.
    transpose: ScatterView,
    /// The SpMV's row results, interleaved as `transpose` is.
    product: Vec<f64>,
}

impl Default for QeqMatrix {
    fn default() -> Self {
        QeqMatrix {
            n: 0,
            max_row: 0,
            offsets: Vec::new(),
            nnz: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            diag: Vec::new(),
            transpose: ScatterView::new(0, 2, ScatterMode::Sequential),
            product: Vec::new(),
        }
    }
}

impl QeqMatrix {
    /// Refill from the full neighbor list, each pair from the one row
    /// that keeps it: a scan over the row capacities fixes the
    /// (over-allocated) offsets, then a fill kernel computes
    /// values/columns/row-lengths (§4.2.2's scan + fill structure; on
    /// real devices the fill uses hierarchical row parallelism). The
    /// SpMV's scatter is shaped for `space`, which the matrix is then
    /// applied on. Returns how many of the matrix's buffers had to grow
    /// (0 in steady state; the scatter counts its own, see
    /// [`QeqMatrix::scatter_grow_count`]).
    pub fn build(
        &mut self,
        atoms: &AtomData,
        list: &NeighborList,
        ghosts: &GhostMap,
        params: &ReaxParams,
        table: &PairTable,
        space: &Space,
    ) -> u64 {
        let walk = PairWalk::new(atoms, list, ghosts, table.cutoff());
        let n = atoms.nlocal;
        let max_row = list.maxneigh;
        (self.n, self.max_row) = (n, max_row);
        // Over-allocated offsets: capacity-based, i64 per Appendix B.
        let mut grown = ensure_len(&mut self.offsets, n + 1);
        for (i, o) in self.offsets.iter_mut().enumerate() {
            *o = i as i64 * max_row as i64;
        }
        grown += ensure_len(&mut self.nnz, n);
        grown += ensure_len(&mut self.diag, n);
        grown += ensure_len(&mut self.cols, n * max_row);
        grown += ensure_len(&mut self.vals, n * max_row);
        grown += ensure_len(&mut self.product, 2 * n);
        self.transpose.ensure(n, 2, ScatterMode::default_for(space));
        // Work item `i` owns row `i` (no more hits than the list row it
        // is filtered from) and its two per-row entries.
        let rows = (
            parts::rows(&mut self.cols, max_row),
            parts::rows(&mut self.vals, max_row),
            parts::elements(&mut self.nnz),
            parts::elements(&mut self.diag),
        );
        space.parallel_for_parts("QEqMatrixBuild", n, rows, |i, (cols, vals, nnz, diag)| {
            let ti = walk.typ(i);
            let mut count = 0usize;
            walk.half_row(i, |hit| {
                cols[count] = hit.owner as i32;
                vals[count] = table.terms(hit.r, ti, hit.typ).h;
                count += 1;
            });
            *nnz = count as i32;
            *diag = 2.0 * params.elements[ti].eta;
        });
        grown
    }

    /// Heap growths of the SpMV's scatter since construction.
    pub fn scatter_grow_count(&self) -> u64 {
        self.transpose.grow_count()
    }

    /// Total stored non-zeros (excluding the diagonal): one per pair,
    /// half of the non-zeros of the full off-diagonal `H`.
    pub fn total_nnz(&self) -> u64 {
        self.nnz.iter().map(|&c| c as u64).sum()
    }

    /// Fused dual sparse matrix-vector product:
    /// `y1 = A·x1`, `y2 = A·x2` with one pass over the matrix (§4.2.3).
    /// Each stored `v = U[i][c]` is loaded once for four products:
    /// `v·x[c]` into row `i`'s own result and `v·x[i]` scattered to row
    /// `c` (the `Uᵀ` half), for both right-hand sides. The scatter was
    /// shaped by `build`; on another space it is reshaped here.
    pub fn spmv_fused(
        &mut self,
        x1: &[f64],
        x2: &[f64],
        y1: &mut [f64],
        y2: &mut [f64],
        space: &Space,
    ) {
        let QeqMatrix {
            n,
            offsets,
            nnz,
            cols,
            vals,
            diag,
            transpose,
            product,
            ..
        } = self;
        let n = *n;
        transpose.ensure(n, 2, ScatterMode::default_for(space));
        let out = (parts::rows(product, 2), parts::scatter(transpose));
        space.parallel_for_parts("QEqSpmvFused", n, out, |i, (own, yt)| {
            let base = offsets[i] as usize;
            let len = nnz[i] as usize;
            let (xi1, xi2) = (x1[i], x2[i]);
            let mut a1 = diag[i] * xi1;
            let mut a2 = diag[i] * xi2;
            for (&v, &c) in vals[base..base + len].iter().zip(&cols[base..base + len]) {
                let c = c as usize;
                // One matrix-element load feeds both right-hand sides
                // of both triangles — the fused-solve reuse the paper
                // describes.
                a1 += v * x1[c];
                a2 += v * x2[c];
                yt.add(c, 0, v * xi1);
                yt.add(c, 1, v * xi2);
            }
            own.copy_from_slice(&[a1, a2]);
        });
        // y = (D + U)·x + Uᵀ·x: a host loop, like any contribute.
        transpose.contribute_into(&mut product[..2 * n]);
        for ((y1, y2), p) in y1
            .iter_mut()
            .zip(y2.iter_mut())
            .zip(product.chunks_exact(2))
        {
            (*y1, *y2) = (p[0], p[1]);
        }
    }
}

/// The solver's pooled vectors, owned by whoever solves every step.
#[derive(Debug, Default)]
pub struct QeqWork {
    /// In: the initial guesses for `A s = −χ` and `A t = −1` (all zeros
    /// is the cold start). Out: the converged solutions.
    pub s: Vec<f64>,
    pub t: Vec<f64>,
    /// Out: equilibrated charges (sum exactly constrained to 0).
    pub q: Vec<f64>,
    /// `1/diag`, the two residuals, the two search directions and
    /// their images under `A`.
    scratch: [Vec<f64>; 7],
}

impl QeqWork {
    /// Size every vector for an `n`-row system and zero the guess;
    /// returns how many buffers had to grow (0 in steady state).
    pub fn reset(&mut self, n: usize) -> u64 {
        self.s.clear();
        self.t.clear();
        [&mut self.s, &mut self.t, &mut self.q]
            .into_iter()
            .chain(&mut self.scratch)
            .map(|v| ensure_len(v, n))
            .sum()
    }
}

/// Outcome of the dual-CG charge solve; the charges themselves are in
/// [`QeqWork::q`].
#[derive(Debug, Clone, Copy)]
pub struct QeqSolution {
    /// CG iterations used (both systems share iterations: fused).
    pub iterations: usize,
    /// The self + interaction electrostatic energy
    /// `Σχq + Σηq² + Σ_{i<j} H q q` = `χ·q + ½ qᵀAq`; 0 without `eflag`.
    pub energy: f64,
    /// Final `‖r‖/‖b‖` of the `s` and `t` systems.
    pub residuals: [f64; 2],
    /// Both residuals are below the tolerance. `false` means the
    /// iteration budget ran out (or the iteration broke down) and `q`
    /// is not an equilibrium.
    pub converged: bool,
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Solve the QEq system with fused dual Jacobi-preconditioned CG,
/// starting from the guess found in `work.s` / `work.t` (sized by
/// [`QeqWork::reset`], which also zeroes them). A zero guess needs no
/// initial SpMV (`r = b`); any other pays one fused SpMV for
/// `r = b − A x₀`. With `eflag` one more SpMV evaluates the energy.
pub fn solve(
    matrix: &mut QeqMatrix,
    chi: &[f64],
    work: &mut QeqWork,
    tol: f64,
    eflag: bool,
    space: &Space,
) -> QeqSolution {
    let n = matrix.n;
    assert!(chi.len() == n && work.s.len() == n && work.t.len() == n);
    let QeqWork { s, t, q, scratch } = work;
    let [minv, r1, r2, p1, p2, ap1, ap2] = scratch.each_mut().map(|v| &mut v[..n]);
    // b1 = −χ, b2 = −1.
    let b1norm = dot(chi, chi).sqrt().max(1e-300);
    let b2norm = (n as f64).sqrt();
    let warm = s.iter().chain(t.iter()).any(|&x| x != 0.0);
    if warm {
        matrix.spmv_fused(s, t, ap1, ap2, space);
    }
    let (mut rz1, mut rz2, mut rr1, mut rr2) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..n {
        minv[i] = 1.0 / matrix.diag[i];
        r1[i] = -chi[i];
        r2[i] = -1.0;
        if warm {
            r1[i] -= ap1[i];
            r2[i] -= ap2[i];
        }
        p1[i] = r1[i] * minv[i];
        p2[i] = r2[i] * minv[i];
        rz1 += r1[i] * p1[i];
        rz2 += r2[i] * p2[i];
        rr1 += r1[i] * r1[i];
        rr2 += r2[i] * r2[i];
    }
    let mut iterations = 0;
    for _ in 0..(4 * n + 64) {
        let c1 = rr1.sqrt() / b1norm < tol;
        let c2 = rr2.sqrt() / b2norm < tol;
        if c1 && c2 {
            break;
        }
        iterations += 1;
        matrix.spmv_fused(p1, p2, ap1, ap2, space);
        let alpha1 = if c1 { 0.0 } else { rz1 / dot(p1, ap1) };
        let alpha2 = if c2 { 0.0 } else { rz2 / dot(p2, ap2) };
        // One update pass also carries ‖r‖² and r·z for the next
        // iteration's convergence test and β.
        let (mut rz1_new, mut rz2_new) = (0.0, 0.0);
        (rr1, rr2) = (0.0, 0.0);
        for i in 0..n {
            s[i] += alpha1 * p1[i];
            t[i] += alpha2 * p2[i];
            r1[i] -= alpha1 * ap1[i];
            r2[i] -= alpha2 * ap2[i];
            rz1_new += r1[i] * (r1[i] * minv[i]);
            rz2_new += r2[i] * (r2[i] * minv[i]);
            rr1 += r1[i] * r1[i];
            rr2 += r2[i] * r2[i];
        }
        let beta1 = if c1 || rz1 == 0.0 { 0.0 } else { rz1_new / rz1 };
        let beta2 = if c2 || rz2 == 0.0 { 0.0 } else { rz2_new / rz2 };
        for i in 0..n {
            p1[i] = r1[i] * minv[i] + beta1 * p1[i];
            p2[i] = r2[i] * minv[i] + beta2 * p2[i];
        }
        rz1 = rz1_new;
        rz2 = rz2_new;
    }
    let residuals = [rr1.sqrt() / b1norm, rr2.sqrt() / b2norm];
    // Constrained combination: q = s − (Σs/Σt)·t.
    let mu = s.iter().sum::<f64>() / t.iter().sum::<f64>();
    for i in 0..n {
        q[i] = s[i] - mu * t[i];
    }
    // Energy = χ·q + ½ qᵀAq.
    let energy = if eflag {
        matrix.spmv_fused(q, q, ap1, ap2, space);
        dot(chi, q) + 0.5 * dot(q, ap1)
    } else {
        0.0
    };
    QeqSolution {
        iterations,
        energy,
        residuals,
        converged: residuals[0] < tol && residuals[1] < tol,
    }
}

/// The last four converged `s` and `t` vectors, newest first, from
/// which the next step's initial guess is extrapolated (LAMMPS'
/// `fix qeq/reaxff`, `init_matvec`).
///
/// The rows belong to atoms, not to indices: they are stored in the
/// owner order of `tags` and [`ChargeHistory::follow`] re-gathers them
/// by tag when that order changes (neighbor rebuild, spatial sort). A
/// tag set that is not a permutation of the stored one is another
/// system — every atom then starts from zero, i.e. the history is
/// empty and the solve is cold. (ReaxFF runs on one rank; under a
/// brick decomposition the rows would have to migrate with the atoms.)
#[derive(Debug, Default)]
pub struct ChargeHistory {
    tags: Vec<i64>,
    s: [Vec<f64>; 4],
    t: [Vec<f64>; 4],
    depth: usize,
    /// Re-gather scratch: stored `(tag, row)` sorted by tag, the new
    /// order's source rows, and one vector being permuted.
    by_tag: Vec<(i64, u32)>,
    source: Vec<u32>,
    permuted: Vec<f64>,
}

impl ChargeHistory {
    /// Number of stored solutions (0..=4).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Forget every stored solution: the next guess is zero.
    fn clear(&mut self) {
        self.depth = 0;
    }

    /// Bring the stored rows into the owner order `tags`, or clear the
    /// history if `tags` is not a permutation of the stored tags.
    pub fn follow(&mut self, tags: &[i64]) {
        if self.depth == 0 || self.tags == tags {
            return;
        }
        if tags.len() != self.tags.len() {
            return self.clear();
        }
        self.by_tag.clear();
        self.by_tag
            .extend(self.tags.iter().zip(0u32..).map(|(&tag, row)| (tag, row)));
        self.by_tag.sort_unstable();
        self.source.clear();
        for tag in tags {
            match self.by_tag.binary_search_by_key(tag, |&(t, _)| t) {
                Ok(k) => self.source.push(self.by_tag[k].1),
                Err(_) => return self.clear(),
            }
        }
        let depth = self.depth;
        for v in self.s[..depth].iter_mut().chain(&mut self.t[..depth]) {
            self.permuted.clear();
            self.permuted
                .extend(self.source.iter().map(|&row| v[row as usize]));
            std::mem::swap(v, &mut self.permuted);
        }
        self.tags.copy_from_slice(tags);
    }

    /// Add the extrapolated guess to `s0` / `t0` (zeroed by the
    /// caller, so an empty history leaves the zero guess):
    /// `s₀ = 4(s₁+s₃) − (6s₂+s₄)` (cubic) and `t₀ = t₃ + 3(t₁−t₂)`
    /// (quadratic) once four solutions are stored, the lower-order
    /// polynomial through what there is before that.
    pub fn guess(&self, s0: &mut [f64], t0: &mut [f64]) {
        // Newest first: the polynomial through 1, 2, 3 or 4 samples.
        const THROUGH: [[f64; 4]; 4] = [
            [1.0, 0.0, 0.0, 0.0],
            [2.0, -1.0, 0.0, 0.0],
            [3.0, -3.0, 1.0, 0.0],
            [4.0, -6.0, 4.0, -1.0],
        ];
        if self.depth == 0 {
            return;
        }
        let (cs, ct) = (THROUGH[self.depth - 1], THROUGH[self.depth.min(3) - 1]);
        for (out, hist, coeff) in [(s0, &self.s, cs), (t0, &self.t, ct)] {
            assert_eq!(out.len(), self.tags.len(), "follow() the tags first");
            for (h, c) in hist.iter().zip(coeff).filter(|&(_, c)| c != 0.0) {
                for (o, x) in out.iter_mut().zip(h) {
                    *o += c * x;
                }
            }
        }
    }

    /// Store a converged solution of the system whose owner order is
    /// `tags` as the newest entry; returns how many buffers grew.
    pub fn push(&mut self, tags: &[i64], s: &[f64], t: &[f64]) -> u64 {
        let mut grown = 0;
        if self.depth == 0 {
            grown += u64::from(tags.len() > self.tags.capacity());
            self.tags.clear();
            self.tags.extend_from_slice(tags);
        }
        debug_assert_eq!(self.tags, tags, "follow() the tags first");
        for (hist, new) in [(&mut self.s, s), (&mut self.t, t)] {
            hist.rotate_right(1);
            grown += u64::from(new.len() > hist[0].capacity());
            hist[0].clear();
            hist[0].extend_from_slice(new);
        }
        self.depth = (self.depth + 1).min(4);
        grown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkk_core::comm::build_ghosts;
    use lkk_core::domain::Domain;
    use lkk_core::neighbor::NeighborSettings;

    fn setup(positions: &[[f64; 3]], types: &[i32], l: f64) -> (AtomData, QeqMatrix, ReaxParams) {
        setup_with(ReaxParams::hns_like(), positions, types, l)
    }

    fn setup_with(
        params: ReaxParams,
        positions: &[[f64; 3]],
        types: &[i32],
        l: f64,
    ) -> (AtomData, QeqMatrix, ReaxParams) {
        let mut atoms = AtomData::from_positions(positions);
        for (i, &t) in types.iter().enumerate() {
            atoms.typ.h_view_mut().set([i], t);
        }
        atoms.mass = vec![1.0; 4];
        let domain = Domain::cubic(l);
        atoms.wrap_positions(&domain);
        let settings = NeighborSettings::new(params.r_nonb, 0.3, false);
        let ghosts = build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let list = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        let mut m = QeqMatrix::default();
        let table = PairTable::new(&params);
        m.build(&atoms, &list, &ghosts, &params, &table, &Space::Serial);
        (atoms, m, params)
    }

    /// What the first call of any `PairReaxff` does: a solve from the
    /// zero guess on a fresh workspace, energy included.
    struct Cold {
        q: Vec<f64>,
        iterations: usize,
        energy: f64,
    }

    fn solve(m: &mut QeqMatrix, chi: &[f64], params: &ReaxParams, space: &Space) -> Cold {
        let mut work = QeqWork::default();
        work.reset(m.n);
        let sol = super::solve(m, chi, &mut work, params.qeq_tol, true, space);
        assert!(sol.converged, "residuals {:?}", sol.residuals);
        Cold {
            q: work.q,
            iterations: sol.iterations,
            energy: sol.energy,
        }
    }

    /// The stored entries `(i, c, v)` of `U`, row by row.
    fn stored(m: &QeqMatrix) -> Vec<(usize, usize, f64)> {
        (0..m.n)
            .flat_map(|i| {
                let base = m.offsets[i] as usize;
                (base..base + m.nnz[i] as usize).map(move |s| (i, m.cols[s] as usize, m.vals[s]))
            })
            .collect()
    }

    /// `A = D + U + Uᵀ`, dense.
    fn dense(m: &QeqMatrix) -> Vec<Vec<f64>> {
        let mut a = vec![vec![0.0; m.n]; m.n];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = m.diag[i];
        }
        for (i, c, v) in stored(m) {
            a[i][c] += v;
            a[c][i] += v;
        }
        a
    }

    #[test]
    fn matrix_is_symmetric_with_i64_offsets() {
        let positions = [[9.0, 9.0, 9.0], [11.0, 9.0, 9.0], [9.0, 11.5, 9.0]];
        let types = [0, 3, 1];
        let (_atoms, m, params) = setup(&positions, &types, 18.0);
        // Offsets are capacity-based i64.
        assert_eq!(m.offsets.len(), 4);
        assert_eq!(m.offsets[2] - m.offsets[1], m.max_row as i64);
        // One triangle is stored: each of the three pairs once, in one
        // of its two rows, as the pair's `H`.
        let table = PairTable::new(&params);
        let entries = stored(&m);
        assert_eq!(entries.len(), 3);
        for &(i, c, v) in &entries {
            assert_ne!(i, c);
            let d: Vec<f64> = (0..3).map(|k| positions[i][k] - positions[c][k]).collect();
            let r = d.iter().map(|x| x * x).sum::<f64>().sqrt();
            let h = table.terms(r, types[i] as usize, types[c] as usize).h;
            assert!((v - h).abs() <= 1e-12 * h, "H[{i}][{c}] = {v}, want {h}");
            let mirrored = entries.iter().filter(|e| (e.0, e.1) == (c, i));
            assert_eq!(mirrored.count(), 0, "pair ({i}, {c}) stored twice");
        }
        // A = D + U + Uᵀ is symmetric with every off-diagonal present.
        let a = dense(&m);
        for (i, row) in a.iter().enumerate() {
            for (j, &aij) in row.iter().enumerate() {
                assert_eq!(aij, a[j][i]);
                assert!(aij > 0.0, "A[{i}][{j}] missing");
            }
        }
    }

    #[test]
    fn spmv_fused_matches_dense() {
        let (_a, mut m, _) = setup(
            &[
                [9.0, 9.0, 9.0],
                [11.0, 9.0, 9.0],
                [9.0, 11.5, 9.0],
                [12.0, 12.0, 12.0],
            ],
            &[0, 1, 2, 3],
            20.0,
        );
        let n = m.n;
        let dense = dense(&m);
        let x1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let x2: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 * 0.2).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        m.spmv_fused(&x1, &x2, &mut y1, &mut y2, &Space::Serial);
        for i in 0..n {
            let d1: f64 = (0..n).map(|j| dense[i][j] * x1[j]).sum();
            let d2: f64 = (0..n).map(|j| dense[i][j] * x2[j]).sum();
            assert!((y1[i] - d1).abs() < 1e-12);
            assert!((y2[i] - d2).abs() < 1e-12);
        }
    }

    /// The benchmark's 2 250-atom crystal, where every dispatch forks:
    /// the duplicated (threads) and atomic (device) scatters of `Uᵀ·x`
    /// sum what the sequential one does, up to summation order.
    #[test]
    fn spmv_fused_agrees_across_spaces_at_a_forked_size() {
        let (pos, types, domain) = crate::hns::crystal(5, 5, 5, 7.5);
        let (_atoms, mut m, _) = setup(&pos, &types, domain.lengths()[0]);
        assert!(m.total_nnz() > 90_000, "{} stored non-zeros", m.total_nnz());
        let (x1, x2): (Vec<f64>, Vec<f64>) = (0..m.n)
            .map(|i| ((0.3 * i as f64).sin(), (0.11 * i as f64).cos()))
            .unzip();
        let mut product = |space: &Space| {
            let (mut y1, mut y2) = (vec![0.0; m.n], vec![0.0; m.n]);
            m.spmv_fused(&x1, &x2, &mut y1, &mut y2, space);
            [y1, y2]
        };
        let want = product(&Space::Serial);
        for space in [Space::Threads, Space::device(lkk_gpusim::GpuArch::h100())] {
            for (got, want) in product(&space).iter().zip(&want) {
                for (a, b) in got.iter().zip(want) {
                    assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn charges_are_neutral_and_follow_electronegativity() {
        // C (χ 5.7) and O (χ 8.5): oxygen pulls negative charge.
        let (atoms, mut m, params) = setup(&[[9.0, 9.0, 9.0], [10.4, 9.0, 9.0]], &[0, 3], 18.0);
        let typ = atoms.typ.h_view();
        let chi: Vec<f64> = (0..m.n)
            .map(|i| params.elements[typ.at([i]) as usize].chi)
            .collect();
        let sol = solve(&mut m, &chi, &params, &Space::Serial);
        assert!(sol.q.iter().sum::<f64>().abs() < 1e-10, "not neutral");
        assert!(sol.q[1] < 0.0, "O charge {}", sol.q[1]);
        assert!(sol.q[0] > 0.0);
        assert!(sol.iterations > 0);
    }

    #[test]
    fn solution_satisfies_stationarity() {
        // At the constrained minimum, ∇E = χ + Aq is a constant vector.
        let (atoms, mut m, params) = setup(
            &[
                [9.0, 9.0, 9.0],
                [10.4, 9.2, 8.8],
                [8.0, 10.0, 9.5],
                [11.0, 11.0, 11.0],
                [7.5, 7.5, 8.0],
            ],
            &[0, 1, 2, 3, 0],
            18.0,
        );
        let typ = atoms.typ.h_view();
        let chi: Vec<f64> = (0..m.n)
            .map(|i| params.elements[typ.at([i]) as usize].chi)
            .collect();
        let sol = solve(&mut m, &chi, &params, &Space::Serial);
        let mut aq = vec![0.0; m.n];
        let mut dummy = vec![0.0; m.n];
        m.spmv_fused(&sol.q, &sol.q, &mut aq, &mut dummy, &Space::Serial);
        let grad: Vec<f64> = (0..m.n).map(|i| chi[i] + aq[i]).collect();
        let mean = grad.iter().sum::<f64>() / m.n as f64;
        for g in &grad {
            assert!(
                (g - mean).abs() < 1e-6,
                "gradient not uniform: {g} vs {mean}"
            );
        }
        // Energy is below the q = 0 energy (0).
        assert!(sol.energy < 0.0);
    }

    #[test]
    fn identical_atoms_share_charge_zero() {
        let (_a, mut m, params) = setup(&[[9.0, 9.0, 9.0], [10.5, 9.0, 9.0]], &[0, 0], 18.0);
        let chi = vec![params.elements[0].chi; 2];
        let sol = solve(&mut m, &chi, &params, &Space::Serial);
        assert!(sol.q[0].abs() < 1e-10);
        assert!(sol.q[1].abs() < 1e-10);
    }

    const CLUSTER: [[f64; 3]; 5] = [
        [9.0, 9.0, 9.0],
        [10.4, 9.2, 8.8],
        [8.0, 10.0, 9.5],
        [11.0, 11.0, 11.0],
        [7.5, 7.5, 8.0],
    ];

    fn chi_of(atoms: &AtomData, params: &ReaxParams, n: usize) -> Vec<f64> {
        let typ = atoms.typ.h_view();
        (0..n)
            .map(|i| params.elements[typ.at([i]) as usize].chi)
            .collect()
    }

    #[test]
    fn a_converged_guess_costs_one_spmv_and_no_iteration() {
        let (atoms, mut m, params) = setup(&CLUSTER, &[0, 1, 2, 3, 0], 18.0);
        let chi = chi_of(&atoms, &params, m.n);
        let mut work = QeqWork::default();
        work.reset(m.n);
        let cold = super::solve(&mut m, &chi, &mut work, 1e-12, false, &Space::Serial);
        assert!(cold.converged && cold.iterations > 0);
        let (s, t, q) = (work.s.clone(), work.t.clone(), work.q.clone());
        work.reset(m.n);
        assert!(work.s.iter().chain(&work.t).all(|&x| x == 0.0));
        work.s.copy_from_slice(&s);
        work.t.copy_from_slice(&t);
        // The simulated device logs every launch: the warm solve is
        // the one SpMV of r = b − A x₀, a cold one would have none.
        let device = Space::device(lkk_gpusim::GpuArch::h100());
        let warm = super::solve(&mut m, &chi, &mut work, 1e-8, false, &device);
        assert!(warm.converged);
        assert_eq!(warm.iterations, 0);
        let log = device.device_ctx().unwrap().log.drain();
        assert_eq!(log.iter().map(|k| k.launches).sum::<f64>(), 1.0);
        assert_eq!(work.q, q);
    }

    #[test]
    fn history_extrapolates_polynomials_exactly() {
        // s is extrapolated by the cubic through four samples, t by the
        // quadratic through three; with fewer samples, by the
        // polynomial through what there is.
        let tags = [7i64, 3, 9];
        let cubic = |k: f64, i: usize| 1.0 + i as f64 + 0.5 * k - 0.25 * k * k + 0.125 * k * k * k;
        let quadratic = |k: f64, i: usize| 2.0 - i as f64 + 0.5 * k + 0.75 * k * k;
        let mut hist = ChargeHistory::default();
        let sample = |f: &dyn Fn(f64, usize) -> f64, k: usize| -> Vec<f64> {
            (0..3).map(|i| f(k as f64, i)).collect()
        };
        let guess = |hist: &ChargeHistory| {
            let (mut s0, mut t0) = (vec![0.0; 3], vec![0.0; 3]);
            hist.guess(&mut s0, &mut t0);
            (s0, t0)
        };
        assert_eq!(guess(&hist), (vec![0.0; 3], vec![0.0; 3]));
        for k in 0..6 {
            hist.follow(&tags);
            hist.push(&tags, &sample(&cubic, k), &sample(&quadratic, k));
            assert_eq!(hist.depth(), (k + 1).min(4));
            let (s0, t0) = guess(&hist);
            if k == 0 {
                assert_eq!(s0, sample(&cubic, 0));
            }
            if k >= 2 {
                assert_eq!(t0, sample(&quadratic, k + 1), "t after {k}");
            }
            if k >= 3 {
                assert_eq!(s0, sample(&cubic, k + 1), "s after {k}");
            }
        }
    }

    #[test]
    fn history_follows_a_permutation_and_drops_another_tag_set() {
        let mut hist = ChargeHistory::default();
        let tags = [10i64, 20, 30, 40];
        hist.push(&tags, &[1.0, 2.0, 3.0, 4.0], &[-1.0, -2.0, -3.0, -4.0]);
        hist.push(&tags, &[1.5, 2.5, 3.5, 4.5], &[-1.5, -2.5, -3.5, -4.5]);
        let guess = |hist: &ChargeHistory, n: usize| {
            let (mut s0, mut t0) = (vec![0.0; n], vec![0.0; n]);
            hist.guess(&mut s0, &mut t0);
            (s0, t0)
        };
        let (s_before, t_before) = guess(&hist, 4);
        assert_eq!(s_before, [2.0, 3.0, 4.0, 5.0]);
        // A permutation re-gathers every stored row by tag.
        let shuffled = [30i64, 10, 40, 20];
        hist.follow(&shuffled);
        assert_eq!(hist.depth(), 2);
        let (s_after, t_after) = guess(&hist, 4);
        assert_eq!(s_after, [4.0, 2.0, 5.0, 3.0]);
        assert_eq!(
            t_after,
            [t_before[2], t_before[0], t_before[3], t_before[1]]
        );
        // Fewer atoms, or the same number with a tag never seen: not
        // this trajectory, so the guess is zero again.
        for other in [&[10i64, 20, 30][..], &[30, 10, 40, 21]] {
            let mut h = ChargeHistory::default();
            h.push(&shuffled, &s_after, &t_after);
            h.follow(other);
            assert_eq!(h.depth(), 0);
            assert_eq!(guess(&h, other.len()).0, vec![0.0; other.len()]);
            // and what is stored next belongs to the new set.
            h.push(other, &vec![1.0; other.len()], &vec![1.0; other.len()]);
            assert_eq!(guess(&h, other.len()).0, vec![1.0; other.len()]);
        }
    }

    #[test]
    fn indefinite_matrix_reports_non_convergence() {
        // A negative hardness that cancels the coupling of a dimer,
        // 2η = −H, leaves A = H·[[−1, 1], [1, −1]]: not positive
        // definite, and both right-hand sides lie in its null space.
        // There is nothing for CG to converge to, and it must say so
        // rather than return what it holds when the budget runs out.
        let mut params = ReaxParams::hns_like();
        let h = PairTable::new(&params).terms(1.5, 0, 0).h;
        params.elements[0].eta = -0.5 * h;
        let dimer = [[9.0, 9.0, 9.0], [10.5, 9.0, 9.0]];
        let (_atoms, mut m, params) = setup_with(params, &dimer, &[0, 0], 18.0);
        let entries = stored(&m);
        assert_eq!(entries.len(), 1, "the dimer is one pair");
        assert_eq!(m.diag, [-entries[0].2; 2]);
        let chi = [params.elements[0].chi; 2];
        let mut work = QeqWork::default();
        work.reset(m.n);
        let sol = super::solve(
            &mut m,
            &chi,
            &mut work,
            params.qeq_tol,
            false,
            &Space::Serial,
        );
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 4 * m.n + 64);
        assert!(
            sol.residuals.iter().all(|r| r.is_nan()),
            "{:?}",
            sol.residuals
        );
    }
}
