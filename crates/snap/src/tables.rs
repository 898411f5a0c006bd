//! Flattened sparse contraction tables for the Zi/Bi/Yi kernels.
//!
//! The direct eq. 3 evaluation walks a quadruple loop per bispectrum
//! triple — `(mb, ma)` over the target block, `(mb1, ma1)` over the
//! coupled blocks — recomputing bounds, flat `u` indices and
//! Clebsch-Gordan lookups on every trip, and branching past the (many)
//! zero coefficients. This module runs those loops *once*, at
//! `SnapContext` construction, over the stored half of every block
//! (rows `mb ≤ ⌊j/2⌋`, see [`SnapIndices`]) and records what survives as
//! rows of weighted products `Σ w·U[a]·U[b]` ([`PairRows`]):
//!
//! * `z` — one row per `(triple, mb, ma)`: `Z^j_{j1,j2}(mb, ma)` times
//!   the row's symmetry weight, so `B = Σ_rows Re(z·conj U_j)` is the
//!   full-block contraction of eq. 3. Read by the energy only.
//! * `y` — one row per stored `U` element: LAMMPS' `compute_yi`,
//!   `Y_j = Σ_{j1≥j2} βj·Z^j_{j1,j2}` over *every* triangle-allowed
//!   `(j1, j2)`, with `β` (and its 1/2/3 multiplicity and
//!   `(j1+1)/(j+1)` factors) and the symmetry weight folded into each
//!   product's weight. `∂E_i/∂x = Σ_half Re(conj(y)·∂U/∂x)`: one pass,
//!   no second adjoint walk.
//!
//! A factor `U_{j1}(mb1, ma1)` from the mirrored half of its block is
//! `±conj` of a stored element. The sign goes into the weight; the
//! conjugate is an index: the kernels read `U` from three planes
//! `[re | im | −im]` ([`PairRows::PLANES`]) and a conjugated factor
//! takes its imaginary part from the third.
//!
//! **Construction-once invariant.** Tables are built exactly once per
//! `SnapContext` (in `SnapContext::new`) and are immutable afterwards;
//! `snap.table.builds` stays pinned at 1 in the perf baseline, so a
//! mid-run rebuild would show up as a counter drift at zero tolerance.

use crate::cg::CgBlock;
use crate::indices::SnapIndices;

/// Rows of weighted complex products, CSR: row `r` is
/// `Σ_p w[p]·U[idx[p][0..2]]·U[idx[p][2..4]]` over `row_lo[r]..row_lo[r+1]`.
#[derive(Debug, Clone, Default)]
pub struct PairRows {
    pub row_lo: Vec<u32>,
    /// `(re₁, im₁, re₂, im₂)` offsets into the `[re | im | −im]` planes.
    pub idx: Vec<[u16; 4]>,
    /// Fused coefficient of the product (nonzero).
    pub w: Vec<f64>,
}

impl PairRows {
    /// The `U` planes the kernels read: `re`, `im`, `−im`.
    pub const PLANES: usize = 3;

    pub fn rows(&self) -> usize {
        self.row_lo.len() - 1
    }

    /// Every row's value for `W` atoms at once: `planes[i][l]` is plane
    /// element `i` of atom `l`. Each lane runs the same operations in
    /// the same order whatever the other lanes hold, so an atom's
    /// result does not depend on its block mates. `planes` is padded to
    /// a power-of-two length ([`ContractionTables::planes_len`]) so that
    /// `index & mask` is in bounds by construction and the inner loop
    /// carries no bounds check (17 % of its time); every table index is
    /// below the mask, which therefore never changes one.
    #[inline(always)]
    pub fn walk<const W: usize>(
        &self,
        planes: &[[f64; W]],
        mut each: impl FnMut(usize, [f64; W], [f64; W]),
    ) {
        assert!(planes.len().is_power_of_two());
        let mask = planes.len() - 1;
        for (r, lohi) in self.row_lo.windows(2).enumerate() {
            let span = lohi[0] as usize..lohi[1] as usize;
            let (mut zr, mut zi) = ([0.0; W], [0.0; W]);
            for (ix, &w) in self.idx[span.clone()].iter().zip(&self.w[span]) {
                let (ar, ai) = (
                    &planes[ix[0] as usize & mask],
                    &planes[ix[1] as usize & mask],
                );
                let (br, bi) = (
                    &planes[ix[2] as usize & mask],
                    &planes[ix[3] as usize & mask],
                );
                for l in 0..W {
                    zr[l] += w * (ar[l] * br[l] - ai[l] * bi[l]);
                    zi[l] += w * (ar[l] * bi[l] + ai[l] * br[l]);
                }
            }
            each(r, zr, zi);
        }
    }
}

/// The flattened sparse contraction tables, built once per context.
#[derive(Debug, Clone, Default)]
pub struct ContractionTables {
    /// `Z` rows, triple-major, `mb` outer / `ma` inner within a triple.
    pub z: PairRows,
    /// Stored `U` element each `z` row is contracted with.
    pub z_iu: Vec<u16>,
    /// Triple `t` owns `z` rows `z_triple[t]..z_triple[t+1]`.
    pub z_triple: Vec<u32>,
    /// `Y` rows, one per stored `U` element, `β = 0` triples left out.
    pub y: PairRows,
}

impl ContractionTables {
    /// Run the direct loops once and record the surviving work.
    pub fn build(idx: &SnapIndices, cg: &[CgBlock], beta: &[f64]) -> Self {
        let n = idx.u_len;
        assert!(
            Self::planes_len(idx) <= u16::MAX as usize,
            "u_len {n} too large"
        );
        let mut t = ContractionTables::default();
        t.z.row_lo.push(0);
        t.z_triple.push(0);
        for (ti, &(j1, j2, j)) in idx.triples.iter().enumerate() {
            for mb in 0..=j / 2 {
                for ma in 0..=j {
                    let weight = SnapIndices::sym_weight(j, mb);
                    push_products(idx, &cg[ti], (j1, j2, j), (mb, ma), weight, &mut t.z);
                    t.z.row_lo.push(t.z.w.len() as u32);
                    t.z_iu.push(idx.u_index(j, mb, ma) as u16);
                }
            }
            t.z_triple.push(t.z_iu.len() as u32);
        }
        // Y: bucket every (j1 ≥ j2, j) product by its target element.
        let mut rows = vec![PairRows::default(); n];
        for j1 in 0..=idx.twojmax {
            for j2 in 0..=j1 {
                for j in (j1 - j2..=(j1 + j2).min(idx.twojmax)).step_by(2) {
                    let betaj = beta_j(idx, beta, j1, j2, j);
                    if betaj == 0.0 {
                        continue;
                    }
                    let cgb = CgBlock::new(j1, j2, j);
                    for mb in 0..=j / 2 {
                        for ma in 0..=j {
                            let weight = betaj * SnapIndices::sym_weight(j, mb);
                            let row = &mut rows[idx.u_index(j, mb, ma)];
                            push_products(idx, &cgb, (j1, j2, j), (mb, ma), weight, row);
                        }
                    }
                }
            }
        }
        t.y.row_lo.push(0);
        for row in rows {
            t.y.idx.extend(row.idx);
            t.y.w.extend(row.w);
            t.y.row_lo.push(t.y.w.len() as u32);
        }
        t
    }

    /// Length of the `[re | im | −im]` plane array the walks read
    /// (padded to a power of two, see [`PairRows::walk`]).
    pub fn planes_len(idx: &SnapIndices) -> usize {
        (PairRows::PLANES * idx.u_len).next_power_of_two()
    }
}

/// The weight `Z^j_{j1,j2}` enters `Y_j` with (LAMMPS' `compute_yi`):
/// `B_{j1,j2,j}/(j+1)` is symmetric in its three indices, so each
/// `β·B` differentiates into up to three `Z`s — one per index slot the
/// target block `j` can take — collapsing to a factor 2 or 3 when
/// slots coincide.
fn beta_j(idx: &SnapIndices, beta: &[f64], j1: usize, j2: usize, j: usize) -> f64 {
    let b = beta[idx.triple_index(j1, j2, j)];
    if j >= j1 {
        b * (1 + usize::from(j1 == j) + usize::from(j1 == j && j2 == j)) as f64
    } else {
        let multiplicity = if j2 == j { 2.0 } else { 1.0 };
        multiplicity * b * (j1 + 1) as f64 / (j + 1) as f64
    }
}

/// Append the surviving products of `weight·Z^j_{j1,j2}(mb, ma)`.
fn push_products(
    idx: &SnapIndices,
    cgb: &CgBlock,
    (j1, j2, j): (usize, usize, usize),
    (mb, ma): (usize, usize),
    weight: f64,
    out: &mut PairRows,
) {
    let n = idx.u_len;
    let shift = (j1 + j2 - j) / 2;
    let plane_refs = |(i, sign, conj): (usize, f64, bool)| -> ([u16; 2], f64) {
        ([i as u16, (n + i + if conj { n } else { 0 }) as u16], sign)
    };
    for ma1 in (ma + shift).saturating_sub(j2)..=(ma + shift).min(j1) {
        let ma2 = ma + shift - ma1;
        let ca = cgb.get(ma1, ma2);
        for mb1 in (mb + shift).saturating_sub(j2)..=(mb + shift).min(j1) {
            let mb2 = mb + shift - mb1;
            let (p1, s1) = plane_refs(idx.u_ref(j1, mb1, ma1));
            let (p2, s2) = plane_refs(idx.u_ref(j2, mb2, ma2));
            let w = weight * ca * cgb.get(mb1, mb2) * s1 * s2;
            if w != 0.0 {
                out.idx.push([p1[0], p1[1], p2[0], p2[1]]);
                out.w.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::CgBlock;

    fn tables_for(twojmax: usize, beta: &[f64]) -> (SnapIndices, ContractionTables) {
        let idx = SnapIndices::new(twojmax);
        let cg: Vec<CgBlock> = idx
            .triples
            .iter()
            .map(|&(j1, j2, j)| CgBlock::new(j1, j2, j))
            .collect();
        let t = ContractionTables::build(&idx, &cg, beta);
        (idx, t)
    }

    #[test]
    fn rows_cover_the_stored_half_of_every_block() {
        for twojmax in [2usize, 4, 6, 8] {
            let idx = SnapIndices::new(twojmax);
            let beta = vec![1.0; idx.n_bispectrum()];
            let (idx, t) = tables_for(twojmax, &beta);
            let want: usize = idx
                .triples
                .iter()
                .map(|&(_, _, j)| (j / 2 + 1) * (j + 1))
                .sum();
            assert_eq!(t.z.rows(), want);
            assert_eq!(t.z_iu.len(), want);
            assert_eq!(t.z_triple.len(), idx.triples.len() + 1);
            assert_eq!(*t.z_triple.last().unwrap() as usize, want);
            assert_eq!(t.y.rows(), idx.u_len);
        }
        // The sizes docs/performance.md quotes for 2J = 8.
        let idx = SnapIndices::new(8);
        let (_, t) = tables_for(8, &vec![1.0; idx.n_bispectrum()]);
        assert_eq!((t.z.rows(), t.y.rows()), (1518, 155));
        assert_eq!((t.z.w.len(), t.y.w.len()), (18_444, 39_610));
    }

    #[test]
    fn zero_beta_triples_are_left_out_of_y() {
        let idx = SnapIndices::new(4);
        let ones = vec![1.0; idx.n_bispectrum()];
        let mut beta = ones.clone();
        beta[0] = 0.0;
        beta[3] = 0.0;
        let (_, all) = tables_for(4, &ones);
        let (_, some) = tables_for(4, &beta);
        assert!(some.y.w.len() < all.y.w.len());
        assert_eq!(some.z.w.len(), all.z.w.len());
        let (_, none) = tables_for(4, &vec![0.0; idx.n_bispectrum()]);
        assert!(none.y.w.is_empty());
        assert_eq!(none.y.rows(), idx.u_len);
    }

    #[test]
    fn no_zero_coefficients_survive_and_indices_stay_in_the_planes() {
        let idx = SnapIndices::new(8);
        let beta: Vec<f64> = (0..idx.n_bispectrum())
            .map(|i| (i % 3) as f64 - 1.0)
            .collect();
        let (idx, t) = tables_for(8, &beta);
        for rows in [&t.z, &t.y] {
            assert!(!rows.w.is_empty());
            assert!(rows.w.iter().all(|&w| w != 0.0));
            assert_eq!(rows.idx.len(), rows.w.len());
            assert_eq!(*rows.row_lo.last().unwrap() as usize, rows.w.len());
            assert!(rows.row_lo.windows(2).all(|w| w[0] <= w[1]));
            for ix in &rows.idx {
                // Real parts in plane 0, imaginary parts in plane 1 or 2.
                for k in [0, 2] {
                    assert!((ix[k] as usize) < idx.u_len);
                    assert_eq!(ix[k + 1] as usize % idx.u_len, ix[k] as usize);
                    assert!((idx.u_len..3 * idx.u_len).contains(&(ix[k + 1] as usize)));
                }
            }
        }
    }
}
