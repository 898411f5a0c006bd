#![cfg(test)]
//! The full-range oracle: every `(j+1)²` block stored whole, the direct
//! quadruple loops of eq. 3, and the adjoint `Y = ∂E_i/∂U` by exact
//! reverse-mode differentiation of those loops with every element of
//! `U` an independent variable — the implementation the half-range
//! kernels replaced, kept as the reference the unit tests compare `B`,
//! `E_i` and `∂E_i/∂x_k` against (≤ 1e-12 relative). It shares the CG
//! blocks, `β`, the hypersphere map and nothing else with them.

use crate::context::SnapContext;
use crate::hyper::CayleyKleinDeriv;

/// Full-range layout and loops over a context's coefficients.
pub(crate) struct Reference<'a> {
    pub ctx: &'a SnapContext,
    /// Offset of the full block `j`.
    pub block: Vec<usize>,
    /// `Σ_j (j+1)²`.
    pub len: usize,
}

/// One atom's full-range evaluation.
pub(crate) struct Evaluation {
    pub utot_r: Vec<f64>,
    pub utot_i: Vec<f64>,
    pub b: Vec<f64>,
    pub energy: f64,
    pub y_r: Vec<f64>,
    pub y_i: Vec<f64>,
    /// `∂E_i/∂x_k` per neighbor.
    pub grads: Vec<[f64; 3]>,
}

fn conj_mul(ar: f64, ai: f64, ur: f64, ui: f64) -> (f64, f64) {
    (ar * ur + ai * ui, ar * ui - ai * ur)
}

impl<'a> Reference<'a> {
    pub fn new(ctx: &'a SnapContext) -> Self {
        let mut block = Vec::new();
        let mut len = 0;
        for j in 0..=ctx.idx.twojmax {
            block.push(len);
            len += (j + 1) * (j + 1);
        }
        assert_eq!(len, ctx.idx.u_full_len);
        Reference { ctx, block, len }
    }

    pub fn u_index(&self, j: usize, mb: usize, ma: usize) -> usize {
        self.block[j] + mb * (j + 1) + ma
    }

    /// `u` and its three Cartesian derivatives (`du[iu * 3 + dir]`): the
    /// lower half by recursion, the upper half filled in by the
    /// inversion symmetry.
    pub fn compute_u_du(
        &self,
        ckd: &CayleyKleinDeriv,
        u_r: &mut [f64],
        u_i: &mut [f64],
        du_r: &mut [f64],
        du_i: &mut [f64],
    ) {
        let rootpq = |p: usize, q: usize| (p as f64 / q as f64).sqrt();
        let ck = &ckd.ck;
        u_r[0] = 1.0;
        u_i[0] = 0.0;
        du_r[..3].fill(0.0);
        du_i[..3].fill(0.0);
        for j in 1..=self.ctx.idx.twojmax {
            let mut mb = 0;
            while 2 * mb <= j {
                for ma in 0..=j {
                    let iu = self.u_index(j, mb, ma);
                    let (mut vr, mut vi) = (0.0, 0.0);
                    let (mut dv_r, mut dv_i) = ([0.0f64; 3], [0.0f64; 3]);
                    if ma < j {
                        let p = self.u_index(j - 1, mb, ma);
                        let c = rootpq(j - ma, j - mb);
                        let (tr, ti) = conj_mul(ck.a_r, ck.a_i, u_r[p], u_i[p]);
                        vr += c * tr;
                        vi += c * ti;
                        for k in 0..3 {
                            let (d1r, d1i) = conj_mul(ckd.da_r[k], ckd.da_i[k], u_r[p], u_i[p]);
                            let (d2r, d2i) =
                                conj_mul(ck.a_r, ck.a_i, du_r[p * 3 + k], du_i[p * 3 + k]);
                            dv_r[k] += c * (d1r + d2r);
                            dv_i[k] += c * (d1i + d2i);
                        }
                    }
                    if ma > 0 {
                        let p = self.u_index(j - 1, mb, ma - 1);
                        let c = rootpq(ma, j - mb);
                        let (tr, ti) = conj_mul(ck.b_r, ck.b_i, u_r[p], u_i[p]);
                        vr -= c * tr;
                        vi -= c * ti;
                        for k in 0..3 {
                            let (d1r, d1i) = conj_mul(ckd.db_r[k], ckd.db_i[k], u_r[p], u_i[p]);
                            let (d2r, d2i) =
                                conj_mul(ck.b_r, ck.b_i, du_r[p * 3 + k], du_i[p * 3 + k]);
                            dv_r[k] -= c * (d1r + d2r);
                            dv_i[k] -= c * (d1i + d2i);
                        }
                    }
                    u_r[iu] = vr;
                    u_i[iu] = vi;
                    for k in 0..3 {
                        du_r[iu * 3 + k] = dv_r[k];
                        du_i[iu * 3 + k] = dv_i[k];
                    }
                }
                mb += 1;
            }
            for mbp in mb..=j {
                for map in 0..=j {
                    let src = self.u_index(j, j - mbp, j - map);
                    let dst = self.u_index(j, mbp, map);
                    let sign = if (mbp + map) % 2 == 0 { 1.0 } else { -1.0 };
                    u_r[dst] = sign * u_r[src];
                    u_i[dst] = -sign * u_i[src];
                    for k in 0..3 {
                        du_r[dst * 3 + k] = sign * du_r[src * 3 + k];
                        du_i[dst * 3 + k] = -sign * du_i[src * 3 + k];
                    }
                }
            }
        }
    }

    /// One element of `Z^j_{j1,j2}(mb, ma)` from the accumulated U
    /// (the eq. 3 coupled product, both CG contractions).
    pub fn z_element(
        &self,
        t: usize,
        ma: usize,
        mb: usize,
        utot_r: &[f64],
        utot_i: &[f64],
    ) -> (f64, f64) {
        let (j1, j2, j) = self.ctx.idx.triples[t];
        let cgb = &self.ctx.cg[t];
        let shift = (j1 + j2 - j) / 2;
        let (mut zr, mut zi) = (0.0, 0.0);
        for ma1 in (ma + shift).saturating_sub(j2)..=(ma + shift).min(j1) {
            let ma2 = ma + shift - ma1;
            let ca = cgb.get(ma1, ma2);
            for mb1 in (mb + shift).saturating_sub(j2)..=(mb + shift).min(j1) {
                let mb2 = mb + shift - mb1;
                let cb = cgb.get(mb1, mb2);
                let i1 = self.u_index(j1, mb1, ma1);
                let i2 = self.u_index(j2, mb2, ma2);
                let pr = utot_r[i1] * utot_r[i2] - utot_i[i1] * utot_i[i2];
                let pi = utot_r[i1] * utot_i[i2] + utot_i[i1] * utot_r[i2];
                zr += ca * cb * pr;
                zi += ca * cb * pi;
            }
        }
        (zr, zi)
    }

    /// The direct quadruple-loop `B` evaluation.
    pub fn compute_bi_direct(&self, utot_r: &[f64], utot_i: &[f64]) -> Vec<f64> {
        let triples = self.ctx.idx.triples.iter().enumerate();
        triples
            .map(|(t, &(_, _, j))| {
                let mut b = 0.0;
                for mb in 0..=j {
                    for ma in 0..=j {
                        let (zr, zi) = self.z_element(t, ma, mb, utot_r, utot_i);
                        let iu = self.u_index(j, mb, ma);
                        // Re(z · conj(U)).
                        b += zr * utot_r[iu] + zi * utot_i[iu];
                    }
                }
                b
            })
            .collect()
    }

    /// The direct adjoint construction: `(y_r, y_i)` hold
    /// `∂E/∂(Re U)`, `∂E/∂(Im U)` of every full-range element.
    pub fn compute_yi_direct(&self, utot_r: &[f64], utot_i: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (mut y_r, mut y_i) = (vec![0.0; self.len], vec![0.0; self.len]);
        for (t, &(j1, j2, j)) in self.ctx.idx.triples.iter().enumerate() {
            let beta = self.ctx.beta[t];
            let cgb = &self.ctx.cg[t];
            let shift = (j1 + j2 - j) / 2;
            for mb in 0..=j {
                for ma in 0..=j {
                    let iu = self.u_index(j, mb, ma);
                    let (ujr, uji) = (utot_r[iu], utot_i[iu]);
                    // Term 1: B depends on conj(U_j) explicitly.
                    let (zr, zi) = self.z_element(t, ma, mb, utot_r, utot_i);
                    y_r[iu] += beta * zr;
                    y_i[iu] += beta * zi;
                    // Term 2: B depends on U_{j1}, U_{j2} inside Z.
                    for ma1 in (ma + shift).saturating_sub(j2)..=(ma + shift).min(j1) {
                        let ma2 = ma + shift - ma1;
                        let ca = cgb.get(ma1, ma2);
                        for mb1 in (mb + shift).saturating_sub(j2)..=(mb + shift).min(j1) {
                            let mb2 = mb + shift - mb1;
                            let w = beta * ca * cgb.get(mb1, mb2);
                            let i1 = self.u_index(j1, mb1, ma1);
                            let i2 = self.u_index(j2, mb2, ma2);
                            let (u1r, u1i) = (utot_r[i1], utot_i[i1]);
                            let (u2r, u2i) = (utot_r[i2], utot_i[i2]);
                            // E += w [ (u1r u2r − u1i u2i) ujr
                            //        + (u1r u2i + u1i u2r) uji ].
                            y_r[i1] += w * (u2r * ujr + u2i * uji);
                            y_i[i1] += w * (-u2i * ujr + u2r * uji);
                            y_r[i2] += w * (u1r * ujr + u1i * uji);
                            y_i[i2] += w * (-u1i * ujr + u1r * uji);
                        }
                    }
                }
            }
        }
        (y_r, y_i)
    }

    /// Ui → Bi → Yi → Deidrj for one atom, neighbor `k` weighted `wts[k]`.
    pub fn evaluate(&self, neigh: &[[f64; 3]], wts: &[f64]) -> Evaluation {
        let (n, ctx) = (self.len, self.ctx);
        let (mut utot_r, mut utot_i) = (vec![0.0; n], vec![0.0; n]);
        for j in 0..=ctx.idx.twojmax {
            for ma in 0..=j {
                utot_r[self.u_index(j, ma, ma)] = ctx.wself;
            }
        }
        let (mut u_r, mut u_i) = (vec![0.0; n], vec![0.0; n]);
        let (mut du_r, mut du_i) = (vec![0.0; 3 * n], vec![0.0; 3 * n]);
        let weighted = |d: [f64; 3], w: f64| {
            let mut ckd = ctx.hyper.map_with_derivatives(d);
            ckd.ck.sfac *= w;
            ckd.dsfac.iter_mut().for_each(|dk| *dk *= w);
            ckd
        };
        for (&d, &w) in neigh.iter().zip(wts) {
            let ckd = weighted(d, w);
            self.compute_u_du(&ckd, &mut u_r, &mut u_i, &mut du_r, &mut du_i);
            for iu in 0..n {
                utot_r[iu] += ckd.ck.sfac * u_r[iu];
                utot_i[iu] += ckd.ck.sfac * u_i[iu];
            }
        }
        let b = self.compute_bi_direct(&utot_r, &utot_i);
        let energy = b.iter().zip(&ctx.beta).map(|(b, beta)| b * beta).sum();
        let (y_r, y_i) = self.compute_yi_direct(&utot_r, &utot_i);
        let grads = neigh
            .iter()
            .zip(wts)
            .map(|(&d, &w)| {
                let ckd = weighted(d, w);
                self.compute_u_du(&ckd, &mut u_r, &mut u_i, &mut du_r, &mut du_i);
                let mut dedr = [0.0f64; 3];
                for iu in 0..n {
                    for (k, dedk) in dedr.iter_mut().enumerate() {
                        // d(sfac·u)/dx_k = dsfac_k·u + sfac·du_k.
                        let dr = ckd.dsfac[k] * u_r[iu] + ckd.ck.sfac * du_r[iu * 3 + k];
                        let di = ckd.dsfac[k] * u_i[iu] + ckd.ck.sfac * du_i[iu * 3 + k];
                        *dedk += y_r[iu] * dr + y_i[iu] * di;
                    }
                }
                dedr
            })
            .collect();
        Evaluation {
            utot_r,
            utot_i,
            b,
            energy,
            y_r,
            y_i,
            grads,
        }
    }
}
