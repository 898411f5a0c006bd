//! The recursive Wigner-U evaluation and its derivative.
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

use crate::hyper::{CayleyKlein, CayleyKleinDeriv};
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

/// One output row of the recursion, `out = ca·conj(a)·s − cb·conj(b)·s₋₁`
/// (`s₋₁` is `s` shifted one column right), plus — for the derivative —
/// the same with `(a, b) → (da, db)` on `s` and `(a, b)` on `d`. The
/// two end columns have one term each and are peeled off the loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row<const DU: bool>(
    (ca, cb): (&[f64], &[f64]),
    (a, b): ([f64; 2], [f64; 2]),
    (da, db): ([f64; 2], [f64; 2]),
    (sr, si): (&[f64], &[f64]),
    (dr, di): (&[f64], &[f64]),
    (out_r, out_i): (&mut [f64], &mut [f64]),
) {
    let j = sr.len();
    assert!(j >= 1 && si.len() == j && ca.len() == j + 1 && cb.len() == j + 1);
    assert!(out_r.len() == j + 1 && out_i.len() == j + 1);
    assert!(!DU || (dr.len() == j && di.len() == j));
    let term = |x: [f64; 2], dx: [f64; 2], p: usize| -> (f64, f64) {
        if DU {
            let (t1r, t1i) = conj_mul(dx[0], dx[1], sr[p], si[p]);
            let (t2r, t2i) = conj_mul(x[0], x[1], dr[p], di[p]);
            (t1r + t2r, t1i + t2i)
        } else {
            conj_mul(x[0], x[1], sr[p], si[p])
        }
    };
    let (tr, ti) = term(a, da, 0);
    (out_r[0], out_i[0]) = (ca[0] * tr, ca[0] * ti);
    for ma in 1..j {
        let (tr, ti) = term(a, da, ma);
        let (sr_, si_) = term(b, db, ma - 1);
        out_r[ma] = ca[ma] * tr - cb[ma] * sr_;
        out_i[ma] = ca[ma] * ti - cb[ma] * si_;
    }
    let (tr, ti) = term(b, db, j - 1);
    (out_r[j], out_i[j]) = (0.0 - cb[j] * tr, 0.0 - cb[j] * ti);
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
            row::<false>(
                (
                    &rootpq.ca[lo + at..][..j + 1],
                    &rootpq.cb[lo + at..][..j + 1],
                ),
                (a, b),
                (a, b),
                (
                    source_row(low_r, pb, j, mb, 1.0, &mut buf_r),
                    source_row(low_i, pb, j, mb, -1.0, &mut buf_i),
                ),
                (&[], &[]),
                (&mut cur_r[at..][..j + 1], &mut cur_i[at..][..j + 1]),
            );
        }
    }
}

/// The three Cartesian derivatives of a completed `u` (ComputeDuidrj):
/// direction `k` fills plane `k` of `du_r`/`du_i`, each plane laid out
/// like `u`. The recursion only ever reads the previous, completed
/// block of `u` and of its own plane.
pub fn compute_du(
    idx: &SnapIndices,
    rootpq: &RootPq,
    ckd: &CayleyKleinDeriv,
    u_r: &[f64],
    u_i: &[f64],
    du_r: &mut [f64],
    du_i: &mut [f64],
) {
    let n = idx.u_len;
    assert!(u_r.len() == n && u_i.len() == n);
    assert!(du_r.len() == 3 * n && du_i.len() == 3 * n);
    let ck = &ckd.ck;
    let (a, b) = ([ck.a_r, ck.a_i], [ck.b_r, ck.b_i]);
    let (mut ubuf_r, mut ubuf_i) = ([0.0; MAX_ROW], [0.0; MAX_ROW]);
    let (mut dbuf_r, mut dbuf_i) = ([0.0; MAX_ROW], [0.0; MAX_ROW]);
    for (k, (plane_r, plane_i)) in du_r.chunks_mut(n).zip(du_i.chunks_mut(n)).enumerate() {
        plane_r[0] = 0.0;
        plane_i[0] = 0.0;
        let (da, db) = ([ckd.da_r[k], ckd.da_i[k]], [ckd.db_r[k], ckd.db_i[k]]);
        for j in 1..=idx.twojmax {
            let (lo, pb) = (idx.u_block[j], idx.u_block[j - 1]);
            let (low_r, cur_r) = plane_r.split_at_mut(lo);
            let (low_i, cur_i) = plane_i.split_at_mut(lo);
            for mb in 0..=j / 2 {
                let at = mb * (j + 1);
                row::<true>(
                    (
                        &rootpq.ca[lo + at..][..j + 1],
                        &rootpq.cb[lo + at..][..j + 1],
                    ),
                    (a, b),
                    (da, db),
                    (
                        source_row(u_r, pb, j, mb, 1.0, &mut ubuf_r),
                        source_row(u_i, pb, j, mb, -1.0, &mut ubuf_i),
                    ),
                    (
                        source_row(low_r, pb, j, mb, 1.0, &mut dbuf_r),
                        source_row(low_i, pb, j, mb, -1.0, &mut dbuf_i),
                    ),
                    (&mut cur_r[at..][..j + 1], &mut cur_i[at..][..j + 1]),
                );
            }
        }
    }
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

    #[test]
    fn derivative_matches_finite_difference() {
        let (idx, rootpq, p) = setup(6);
        let n = idx.u_len;
        let d0 = [1.4, -0.8, 1.9];
        let ckd = p.map_with_derivatives(d0);
        let mut u_r = vec![0.0; n];
        let mut u_i = vec![0.0; n];
        let mut du_r = vec![0.0; n * 3];
        let mut du_i = vec![0.0; n * 3];
        compute_u(&idx, &rootpq, &ckd.ck, &mut u_r, &mut u_i);
        compute_du(&idx, &rootpq, &ckd, &u_r, &u_i, &mut du_r, &mut du_i);
        let h = 1e-6;
        for k in 0..3 {
            let mut dp = d0;
            let mut dm = d0;
            dp[k] += h;
            dm[k] -= h;
            let mut up_r = vec![0.0; n];
            let mut up_i = vec![0.0; n];
            let mut um_r = vec![0.0; n];
            let mut um_i = vec![0.0; n];
            compute_u(&idx, &rootpq, &p.map(dp), &mut up_r, &mut up_i);
            compute_u(&idx, &rootpq, &p.map(dm), &mut um_r, &mut um_i);
            for iu in 0..n {
                let fd_r = (up_r[iu] - um_r[iu]) / (2.0 * h);
                let fd_i = (up_i[iu] - um_i[iu]) / (2.0 * h);
                assert!(
                    (du_r[k * n + iu] - fd_r).abs() < 1e-6,
                    "re iu={iu} k={k}: {} vs {}",
                    du_r[k * n + iu],
                    fd_r
                );
                assert!((du_i[k * n + iu] - fd_i).abs() < 1e-6);
            }
        }
    }

    /// The half-range recursions store exactly the values the
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
            for d0 in [[0.7, 1.2, -0.4], [1.9, -0.2, 0.3], [-1.1, -0.8, 1.6]] {
                let ckd = c.hyper.map_with_derivatives(d0);
                let (mut u_r, mut u_i) = (vec![0.0; n], vec![0.0; n]);
                let (mut du_r, mut du_i) = (vec![1.0; 3 * n], vec![1.0; 3 * n]);
                compute_u(idx, &c.rootpq, &ckd.ck, &mut u_r, &mut u_i);
                compute_du(idx, &c.rootpq, &ckd, &u_r, &u_i, &mut du_r, &mut du_i);
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
                            for k in 0..3 {
                                assert_eq!(fdu_r[f * 3 + k], sign * du_r[k * n + iu]);
                                assert_eq!(fdu_i[f * 3 + k], im * du_i[k * n + iu]);
                            }
                        }
                    }
                }
            }
        }
    }
}
