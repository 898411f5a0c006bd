//! The recursive Wigner-U evaluation and its reverse sweep.
//!
//! Eq. 2 of the paper: `u_j = F(u_{j−1/2})` — each block follows from
//! the previous by a linear two-term recursion in the Cayley-Klein
//! parameters (the "recursive polynomial evaluation" of §4.3.3 that is
//! "inherently compute bound"):
//!
//! ```text
//! u_j(mb, ma) = √((j−ma)/(j−mb))·conj(a)·u_{j−1}(mb, ma)
//!             − √(ma/(j−mb))    ·conj(b)·u_{j−1}(mb, ma−1)
//! ```
//!
//! Only the rows `mb ≤ ⌊j/2⌋` are computed and stored (the half-range
//! layout of [`SnapIndices`]); the rest is
//! `u_j(j−mb, j−ma) = (−1)^{mb+ma}·conj u_j(mb, ma)` and nothing reads
//! it. The one row the recursion needs from outside the stored half —
//! row `j/2` of the odd block `j−1`, feeding the middle row of an even
//! `j` — is the mirror image of that block's last stored row and is
//! rebuilt in a stack buffer ([`mirror_row`]). Mirroring only flips
//! signs, so every stored element has the bits the full-range
//! evaluation gives it.
//!
//! The derivative (ComputeDuidrj) is taken backwards. A neighbor's
//! position enters `u` only through the four reals `(a_r, a_i, b_r,
//! b_i)`, and Deidrj wants one scalar, `L = Σ_half Re(conj(y)·u)`; so
//! instead of carrying `∂u/∂x_k` forwards through the recursion once
//! per direction, [`compute_u_adjoint`] carries `ū = ∂L/∂u` backwards
//! through it once — seeded with `y`, block `j` pushing its adjoint
//! onto block `j−1` — and collects `∂L/∂(a, b)` on the way. The three
//! Cartesian components are then a 4 × 3 contraction with the
//! `da/dx_k`, `db/dx_k` of the hypersphere map.

use crate::hyper::CayleyKlein;
use crate::indices::SnapIndices;

/// Widest row a stack buffer holds: `twojmax < MAX_ROW`.
const MAX_ROW: usize = 16;

/// The recursion's square-root coefficients, laid out like a half-range
/// `u` array so each row kernel reads them at unit stride.
#[derive(Debug, Clone)]
pub struct RootPq {
    /// `√((j−ma)/(j−mb))` at `u_index(j, mb, ma)`.
    ca: Vec<f64>,
    /// `√(ma/(j−mb))` at `u_index(j, mb, ma)`.
    cb: Vec<f64>,
}

impl RootPq {
    pub fn new(idx: &SnapIndices) -> Self {
        assert!(idx.twojmax < MAX_ROW, "twojmax {} too large", idx.twojmax);
        let mut ca = vec![0.0; idx.u_len];
        let mut cb = vec![0.0; idx.u_len];
        for j in 1..=idx.twojmax {
            for mb in 0..=j / 2 {
                for ma in 0..=j {
                    let iu = idx.u_index(j, mb, ma);
                    ca[iu] = ((j - ma) as f64 / (j - mb) as f64).sqrt();
                    cb[iu] = (ma as f64 / (j - mb) as f64).sqrt();
                }
            }
        }
        RootPq { ca, cb }
    }

    /// Both coefficient rows over `iu..iu + len`.
    #[inline(always)]
    fn rows(&self, iu: usize, len: usize) -> (&[f64], &[f64]) {
        (&self.ca[iu..][..len], &self.cb[iu..][..len])
    }
}

#[inline(always)]
fn conj_mul(ar: f64, ai: f64, ur: f64, ui: f64) -> (f64, f64) {
    // conj(a) * u
    (ar * ur + ai * ui, ar * ui - ai * ur)
}

/// Row `mb` of block `j−1` (width `j`) as the recursion for row `mb` of
/// block `j` reads it. `lower` holds the blocks below `j`, block `j−1`
/// starting at `pb`; a row past the stored half is mirrored into `buf`.
#[inline(always)]
fn source_row<'a>(
    lower: &'a [f64],
    pb: usize,
    j: usize,
    mb: usize,
    conj: f64,
    buf: &'a mut [f64; MAX_ROW],
) -> &'a [f64] {
    if 2 * mb < j {
        &lower[pb + mb * j..][..j]
    } else {
        mirror_row(&lower[pb + (mb - 1) * j..][..j], mb, conj, buf);
        &buf[..j]
    }
}

/// `buf[ma] = ±(−1)^{mb+ma}·last[j−1−ma]`: the mirror image of the last
/// stored row of an odd block, `conj = −1` on the imaginary plane.
#[inline(always)]
fn mirror_row(last: &[f64], mb: usize, conj: f64, buf: &mut [f64; MAX_ROW]) {
    let mut sign = if mb.is_multiple_of(2) { conj } else { -conj };
    for (b, &v) in buf.iter_mut().zip(last.iter().rev()) {
        *b = sign * v;
        sign = -sign;
    }
}

/// The transpose of [`mirror_row`]: fold the adjoint gathered for a
/// mirrored row back onto the stored row it was the image of,
/// `last[j−1−ma] += ±(−1)^{mb+ma}·buf[ma]`.
#[inline(always)]
fn fold_mirror_row(buf: &[f64; MAX_ROW], mb: usize, conj: f64, last: &mut [f64]) {
    let mut sign = if mb.is_multiple_of(2) { conj } else { -conj };
    for (l, &v) in last.iter_mut().rev().zip(buf) {
        *l += sign * v;
        sign = -sign;
    }
}

/// One output row of the recursion, `out = ca·conj(a)·s − cb·conj(b)·s₋₁`
/// (`s₋₁` is `s` shifted one column right). The two end columns have
/// one term each and are peeled off the loop.
#[inline(always)]
fn row(
    (ca, cb): (&[f64], &[f64]),
    (a, b): ([f64; 2], [f64; 2]),
    (sr, si): (&[f64], &[f64]),
    (out_r, out_i): (&mut [f64], &mut [f64]),
) {
    let j = sr.len();
    assert!(j >= 1 && si.len() == j && ca.len() == j + 1 && cb.len() == j + 1);
    assert!(out_r.len() == j + 1 && out_i.len() == j + 1);
    let (tr, ti) = conj_mul(a[0], a[1], sr[0], si[0]);
    (out_r[0], out_i[0]) = (ca[0] * tr, ca[0] * ti);
    for ma in 1..j {
        let (tr, ti) = conj_mul(a[0], a[1], sr[ma], si[ma]);
        let (sr_, si_) = conj_mul(b[0], b[1], sr[ma - 1], si[ma - 1]);
        out_r[ma] = ca[ma] * tr - cb[ma] * sr_;
        out_i[ma] = ca[ma] * ti - cb[ma] * si_;
    }
    let (tr, ti) = conj_mul(b[0], b[1], sr[j - 1], si[j - 1]);
    (out_r[j], out_i[j]) = (0.0 - cb[j] * tr, 0.0 - cb[j] * ti);
}

/// The reverse of one [`row`]. `o` is the finished adjoint of the output
/// row; source element `s[p]` fed `out[p]` through `ca[p]·conj(a)` and
/// `out[p+1]` through `−cb[p+1]·conj(b)`, so with `w1 = ca[p]·o[p]` and
/// `w2 = cb[p+1]·o[p+1]` its adjoint gains `a·w1 − b·w2`, and
/// `g = ∂L/∂(a_r, a_i, b_r, b_i)` gains `conj(w1)·s` and `−conj(w2)·s`.
#[inline(always)]
fn row_adjoint(
    (ca, cb): (&[f64], &[f64]),
    (a, b): ([f64; 2], [f64; 2]),
    (sr, si): (&[f64], &[f64]),
    (or, oi): (&[f64], &[f64]),
    (sbar_r, sbar_i): (&mut [f64], &mut [f64]),
    g: &mut [f64; 4],
) {
    let j = sr.len();
    assert!(si.len() == j && sbar_r.len() == j && sbar_i.len() == j);
    assert!(ca.len() == j + 1 && cb.len() == j + 1 && or.len() == j + 1 && oi.len() == j + 1);
    for p in 0..j {
        let (w1r, w1i) = (ca[p] * or[p], ca[p] * oi[p]);
        let (w2r, w2i) = (cb[p + 1] * or[p + 1], cb[p + 1] * oi[p + 1]);
        g[0] += w1r * sr[p] + w1i * si[p];
        g[1] += w1r * si[p] - w1i * sr[p];
        g[2] -= w2r * sr[p] + w2i * si[p];
        g[3] -= w2r * si[p] - w2i * sr[p];
        sbar_r[p] += (a[0] * w1r - a[1] * w1i) - (b[0] * w2r - b[1] * w2i);
        sbar_i[p] += (a[0] * w1i + a[1] * w1r) - (b[0] * w2i + b[1] * w2r);
    }
}

/// Compute the stored half of all Wigner blocks `u_j(mb, ma)` for one
/// neighbor into `(u_r, u_i)` (flattened per [`SnapIndices`]). The
/// arrays are fully overwritten.
pub fn compute_u(
    idx: &SnapIndices,
    rootpq: &RootPq,
    ck: &CayleyKlein,
    u_r: &mut [f64],
    u_i: &mut [f64],
) {
    assert!(u_r.len() == idx.u_len && u_i.len() == idx.u_len);
    u_r[0] = 1.0;
    u_i[0] = 0.0;
    let (a, b) = ([ck.a_r, ck.a_i], [ck.b_r, ck.b_i]);
    let (mut buf_r, mut buf_i) = ([0.0; MAX_ROW], [0.0; MAX_ROW]);
    for j in 1..=idx.twojmax {
        let (lo, pb) = (idx.u_block[j], idx.u_block[j - 1]);
        let (low_r, cur_r) = u_r.split_at_mut(lo);
        let (low_i, cur_i) = u_i.split_at_mut(lo);
        for mb in 0..=j / 2 {
            let at = mb * (j + 1);
            row(
                rootpq.rows(lo + at, j + 1),
                (a, b),
                (
                    source_row(low_r, pb, j, mb, 1.0, &mut buf_r),
                    source_row(low_i, pb, j, mb, -1.0, &mut buf_i),
                ),
                (&mut cur_r[at..][..j + 1], &mut cur_i[at..][..j + 1]),
            );
        }
    }
}

/// One reverse sweep through the recursion of a completed `u` (the
/// derivative half of ComputeDuidrj + ComputeDeidrj): returns
/// `∂L/∂(a_r, a_i, b_r, b_i)` of `L = Σ_half Re(conj(y)·u)`. `ū` is
/// scratch laid out like `u`: seeded with `y`, then from the top block
/// down every stored row pushes its adjoint onto the row of the block
/// below that the forward pass read for it — the same [`source_row`],
/// a mirrored one gathered on the stack and folded back.
pub fn compute_u_adjoint(
    idx: &SnapIndices,
    rootpq: &RootPq,
    ck: &CayleyKlein,
    (u_r, u_i): (&[f64], &[f64]),
    (y_r, y_i): (&[f64], &[f64]),
    (ubar_r, ubar_i): (&mut [f64], &mut [f64]),
) -> [f64; 4] {
    let n = idx.u_len;
    assert!(u_r.len() == n && u_i.len() == n);
    ubar_r.copy_from_slice(&y_r[..n]);
    ubar_i.copy_from_slice(&y_i[..n]);
    let (a, b) = ([ck.a_r, ck.a_i], [ck.b_r, ck.b_i]);
    let (mut src_r, mut src_i) = ([0.0; MAX_ROW], [0.0; MAX_ROW]);
    let mut g = [0.0; 4];
    for j in (1..=idx.twojmax).rev() {
        let (lo, pb) = (idx.u_block[j], idx.u_block[j - 1]);
        let (low_r, cur_r) = ubar_r.split_at_mut(lo);
        let (low_i, cur_i) = ubar_i.split_at_mut(lo);
        for mb in 0..=j / 2 {
            let at = mb * (j + 1);
            let coef = rootpq.rows(lo + at, j + 1);
            let s = (
                source_row(u_r, pb, j, mb, 1.0, &mut src_r),
                source_row(u_i, pb, j, mb, -1.0, &mut src_i),
            );
            let o = (&cur_r[at..][..j + 1], &cur_i[at..][..j + 1]);
            let below = pb + mb * j;
            if 2 * mb < j {
                let sbar = (&mut low_r[below..][..j], &mut low_i[below..][..j]);
                row_adjoint(coef, (a, b), s, o, sbar, &mut g);
            } else {
                let (mut bar_r, mut bar_i) = ([0.0; MAX_ROW], [0.0; MAX_ROW]);
                let sbar = (&mut bar_r[..j], &mut bar_i[..j]);
                row_adjoint(coef, (a, b), s, o, sbar, &mut g);
                fold_mirror_row(&bar_r, mb, 1.0, &mut low_r[below - j..][..j]);
                fold_mirror_row(&bar_i, mb, -1.0, &mut low_i[below - j..][..j]);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SnapContext;
    use crate::hyper::HyperParams;
    use crate::reference::Reference;

    fn setup(twojmax: usize) -> (SnapIndices, RootPq, HyperParams) {
        let idx = SnapIndices::new(twojmax);
        let rootpq = RootPq::new(&idx);
        (idx, rootpq, HyperParams::default())
    }

    /// Each u_j is a unitary matrix: the stored rows are orthonormal.
    #[test]
    fn u_matrices_are_unitary() {
        let (idx, rootpq, p) = setup(8);
        let ck = p.map([1.1, -0.6, 2.0]);
        let mut u_r = vec![0.0; idx.u_len];
        let mut u_i = vec![0.0; idx.u_len];
        compute_u(&idx, &rootpq, &ck, &mut u_r, &mut u_i);
        for j in 0..=8usize {
            for mb1 in 0..=j / 2 {
                for mb2 in mb1..=j / 2 {
                    let mut dot_r = 0.0;
                    let mut dot_i = 0.0;
                    for ma in 0..=j {
                        let i1 = idx.u_index(j, mb1, ma);
                        let i2 = idx.u_index(j, mb2, ma);
                        dot_r += u_r[i1] * u_r[i2] + u_i[i1] * u_i[i2];
                        dot_i += u_i[i1] * u_r[i2] - u_r[i1] * u_i[i2];
                    }
                    let want = if mb1 == mb2 { 1.0 } else { 0.0 };
                    assert!(
                        (dot_r - want).abs() < 1e-10 && dot_i.abs() < 1e-10,
                        "j={j} rows {mb1},{mb2}: {dot_r} {dot_i}"
                    );
                }
            }
        }
    }

    /// The stored row of the j=1 block is the first row of the
    /// Cayley-Klein SU(2) matrix `[[a*, -b*], [b, a]]`.
    #[test]
    fn j_one_block_is_cayley_klein() {
        let (idx, rootpq, p) = setup(2);
        let ck = p.map([0.9, 0.4, -1.2]);
        let mut u_r = vec![0.0; idx.u_len];
        let mut u_i = vec![0.0; idx.u_len];
        compute_u(&idx, &rootpq, &ck, &mut u_r, &mut u_i);
        let at = (u_r[idx.u_index(1, 0, 0)], u_i[idx.u_index(1, 0, 0)]);
        assert!((at.0 - ck.a_r).abs() < 1e-14 && (at.1 + ck.a_i).abs() < 1e-14);
        let bt = (u_r[idx.u_index(1, 0, 1)], u_i[idx.u_index(1, 0, 1)]);
        assert!((bt.0 + ck.b_r).abs() < 1e-14 && (bt.1 - ck.b_i).abs() < 1e-14);
    }

    /// A reproducible seed `y` with entries in `(−1, 1)` (xorshift).
    fn random_y(seed: u64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        };
        let y_r = (0..n).map(|_| rnd()).collect();
        (y_r, (0..n).map(|_| rnd()).collect())
    }

    /// `u` of `ck`, then the reverse sweep seeded with `y`.
    fn sweep(
        idx: &SnapIndices,
        rootpq: &RootPq,
        ck: &CayleyKlein,
        y: (&[f64], &[f64]),
    ) -> [f64; 4] {
        let n = idx.u_len;
        let (mut u_r, mut u_i) = (vec![0.0; n], vec![0.0; n]);
        // Stale scratch must not leak into the result.
        let (mut ubar_r, mut ubar_i) = (vec![7.0; n], vec![-3.0; n]);
        compute_u(idx, rootpq, ck, &mut u_r, &mut u_i);
        compute_u_adjoint(idx, rootpq, ck, (&u_r, &u_i), y, (&mut ubar_r, &mut ubar_i))
    }

    const GEOMETRIES: [[f64; 3]; 3] = [[0.7, 1.2, -0.4], [1.9, -0.2, 0.3], [-1.1, -0.8, 1.6]];

    /// The sweep against forward-mode differentiation: `G·(da_k, db_k)`
    /// equals `Σ_full Re(conj(y)·du_k)` with `du` from the full-range
    /// reference and the half-range seed spread over the full block by
    /// its symmetry weights, ≤ 1e-12 relative. Odd and even top blocks,
    /// so the mirrored-row fold-back runs at every parity.
    #[test]
    fn adjoint_sweep_matches_the_forward_mode_reference() {
        for twojmax in [1usize, 2, 3, 4, 7, 8] {
            let c = SnapContext::new(
                twojmax,
                HyperParams::default(),
                SnapContext::synthetic_beta(twojmax, 1),
            );
            let (idx, full) = (&c.idx, Reference::new(&c));
            for (g, d0) in GEOMETRIES.into_iter().enumerate() {
                let ckd = c.hyper.map_with_derivatives(d0);
                let (y_r, y_i) = random_y((twojmax * 10 + g) as u64, idx.u_len);
                let grad = sweep(idx, &c.rootpq, &ckd.ck, (&y_r, &y_i));
                let (mut fu_r, mut fu_i) = (vec![0.0; full.len], vec![0.0; full.len]);
                let (mut fdu_r, mut fdu_i) = (vec![0.0; 3 * full.len], vec![0.0; 3 * full.len]);
                full.compute_u_du(&ckd, &mut fu_r, &mut fu_i, &mut fdu_r, &mut fdu_i);
                let mut want = [0.0f64; 3];
                for j in 0..=twojmax {
                    for mb in 0..=j {
                        for ma in 0..=j {
                            let (iu, sign, conj) = idx.u_ref(j, mb, ma);
                            let w = sign / SnapIndices::sym_weight(j, mb);
                            let (yr, yi) = (w * y_r[iu], if conj { -w } else { w } * y_i[iu]);
                            let f = full.u_index(j, mb, ma);
                            for (k, wk) in want.iter_mut().enumerate() {
                                *wk += yr * fdu_r[f * 3 + k] + yi * fdu_i[f * 3 + k];
                            }
                        }
                    }
                }
                let scale = want.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                for (k, want) in want.into_iter().enumerate() {
                    let got = grad[0] * ckd.da_r[k]
                        + grad[1] * ckd.da_i[k]
                        + grad[2] * ckd.db_r[k]
                        + grad[3] * ckd.db_i[k];
                    assert!(
                        (got - want).abs() <= 1e-12 * scale,
                        "2J={twojmax} d={d0:?} k={k}: {got} vs {want} (scale {scale})"
                    );
                }
            }
        }
    }

    /// Deidrj end to end — map derivatives, `u`, the sweep, the 4 × 3
    /// contraction and the `dsfac` term — against a central difference
    /// of `L(d) = Σ_half Re(conj(y)·sfac·u)`, weighted and unweighted.
    #[test]
    fn adjoint_deidrj_matches_finite_difference() {
        let c = SnapContext::new(6, HyperParams::default(), SnapContext::synthetic_beta(6, 1));
        let n = c.idx.u_len;
        let mut s = c.alloc_scratch();
        (s.y_r, s.y_i) = random_y(7, n);
        let (y_r, y_i) = (s.y_r.clone(), s.y_i.clone());
        let (mut u_r, mut u_i) = (vec![0.0; n], vec![0.0; n]);
        let mut l = |d: [f64; 3]| -> f64 {
            let ck = c.hyper.map(d);
            compute_u(&c.idx, &c.rootpq, &ck, &mut u_r, &mut u_i);
            let yu: f64 = (0..n).map(|iu| y_r[iu] * u_r[iu] + y_i[iu] * u_i[iu]).sum();
            ck.sfac * yu
        };
        let (d0, h) = ([1.4, -0.8, 1.9], 1e-6);
        for weight in [1.0, 0.6] {
            let got = c.compute_deidrj_weighted(d0, weight, &mut s);
            for k in 0..3 {
                let (mut dp, mut dm) = (d0, d0);
                dp[k] += h;
                dm[k] -= h;
                let fd = weight * (l(dp) - l(dm)) / (2.0 * h);
                assert!(
                    (got[k] - fd).abs() < 1e-7 * fd.abs().max(1.0),
                    "w={weight} k={k}: {} vs {fd}",
                    got[k]
                );
            }
        }
    }

    /// The sweep is linear in its seed: nothing in gives exactly
    /// nothing out, and `G(y₁ + y₂) = G(y₁) + G(y₂)`.
    #[test]
    fn adjoint_sweep_is_linear_in_its_seed() {
        for twojmax in [5usize, 8] {
            let (idx, rootpq, p) = setup(twojmax);
            let n = idx.u_len;
            let ck = p.map([1.1, -0.6, 2.0]);
            let zero = vec![0.0; n];
            assert_eq!(sweep(&idx, &rootpq, &ck, (&zero, &zero)), [0.0; 4]);
            let ((y1_r, y1_i), (y2_r, y2_i)) = (random_y(1, n), random_y(2, n));
            let sum_r: Vec<f64> = y1_r.iter().zip(&y2_r).map(|(a, b)| a + b).collect();
            let sum_i: Vec<f64> = y1_i.iter().zip(&y2_i).map(|(a, b)| a + b).collect();
            let g1 = sweep(&idx, &rootpq, &ck, (&y1_r, &y1_i));
            let g2 = sweep(&idx, &rootpq, &ck, (&y2_r, &y2_i));
            let g12 = sweep(&idx, &rootpq, &ck, (&sum_r, &sum_i));
            let scale = g12.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            for c in 0..4 {
                assert!(
                    (g12[c] - (g1[c] + g2[c])).abs() <= 1e-13 * scale,
                    "2J={twojmax} component {c}: {} vs {}",
                    g12[c],
                    g1[c] + g2[c]
                );
            }
        }
    }

    /// The half-range recursion stores exactly the values the
    /// mirror-filling full-range reference computes for the same
    /// elements (mirroring a source row only flips signs), and the
    /// reference's upper half is the mirror image of what is stored.
    #[test]
    fn stored_half_equals_the_full_range_reference() {
        for twojmax in [2usize, 4, 7, 8] {
            let c = SnapContext::new(
                twojmax,
                HyperParams::default(),
                SnapContext::synthetic_beta(twojmax, 1),
            );
            let (idx, full) = (&c.idx, Reference::new(&c));
            let n = idx.u_len;
            for d0 in GEOMETRIES {
                let ckd = c.hyper.map_with_derivatives(d0);
                let (mut u_r, mut u_i) = (vec![0.0; n], vec![0.0; n]);
                compute_u(idx, &c.rootpq, &ckd.ck, &mut u_r, &mut u_i);
                let (mut fu_r, mut fu_i) = (vec![0.0; full.len], vec![0.0; full.len]);
                let (mut fdu_r, mut fdu_i) = (vec![0.0; 3 * full.len], vec![0.0; 3 * full.len]);
                full.compute_u_du(&ckd, &mut fu_r, &mut fu_i, &mut fdu_r, &mut fdu_i);
                for j in 0..=twojmax {
                    for mb in 0..=j {
                        for ma in 0..=j {
                            let (iu, sign, conj) = idx.u_ref(j, mb, ma);
                            let im = if conj { -sign } else { sign };
                            let f = full.u_index(j, mb, ma);
                            assert_eq!(fu_r[f], sign * u_r[iu], "u_r j={j} mb={mb} ma={ma}");
                            assert_eq!(fu_i[f], im * u_i[iu], "u_i j={j} mb={mb} ma={ma}");
                        }
                    }
                }
            }
        }
    }
}
