//! Tapered non-bonded interactions: Morse-style van der Waals and
//! shielded Coulomb.
//!
//! The Coulomb pair coefficient `H_ij(r)` here is *the same function*
//! that fills the QEq matrix (§4.2.2) — that identity is what makes the
//! Hellmann-Feynman force (differentiate at fixed equilibrated charges)
//! exact for the total electrostatic energy. It is literally one
//! routine: [`PairTable::terms`] evaluates both terms of a pair, and
//! both [`crate::qeq::QeqMatrix::build`] and [`compute_nonbonded`] walk
//! the neighbor rows through one reader (`PairWalk`) and call it.

use crate::params::ReaxParams;
use crate::taper::taper;
use lkk_core::atom::AtomData;
use lkk_core::comm::GhostMap;
use lkk_core::neighbor::{NeighborList, Within, TOWARD_I};
use lkk_kokkos::{parts, Space};

/// Mixed coefficients of one type pair.
#[derive(Debug, Clone, Copy)]
struct PairCoeffs {
    /// vdW well depth `√(DᵢDⱼ)`.
    d: f64,
    /// vdW steepness `½(αᵢ+αⱼ)`.
    alpha: f64,
    /// vdW minimum `½(rᵢ+rⱼ)`.
    rv: f64,
    /// Coulomb shielding `γᵢⱼ⁻³`, `γᵢⱼ = √(γᵢγⱼ)`.
    g3: f64,
}

/// Everything the pair terms need from [`ReaxParams`], mixed per type
/// pair once (in `PairReaxff::new`) instead of per neighbor. Opaque:
/// the only way to get one is [`PairTable::new`].
#[derive(Debug, Clone)]
pub struct PairTable {
    ntypes: usize,
    coeffs: Vec<PairCoeffs>,
    /// vdW inner-shielding core radius to the seventh power.
    s7: f64,
    /// Non-bonded / taper cutoff.
    rc: f64,
    coulomb_k: f64,
}

/// Both non-bonded terms of one pair at distance `r`: the tapered vdW
/// energy and the tapered shielded-Coulomb kernel `H` (the pair's
/// electrostatic energy is `H·qᵢqⱼ`), each with its radial derivative.
#[derive(Debug, Clone, Copy)]
pub struct PairTerms {
    pub e_vdw: f64,
    pub de_vdw: f64,
    pub h: f64,
    pub dh: f64,
}

impl PairTable {
    pub fn new(params: &ReaxParams) -> Self {
        let ntypes = params.ntypes();
        let coeffs = (0..ntypes * ntypes)
            .map(|k| {
                let (ei, ej) = (&params.elements[k / ntypes], &params.elements[k % ntypes]);
                let gamma = (ei.gamma * ej.gamma).sqrt();
                PairCoeffs {
                    d: (ei.vdw_d * ej.vdw_d).sqrt(),
                    alpha: 0.5 * (ei.vdw_alpha + ej.vdw_alpha),
                    rv: 0.5 * (ei.vdw_r + ej.vdw_r),
                    g3: 1.0 / (gamma * gamma * gamma),
                }
            })
            .collect();
        PairTable {
            ntypes,
            coeffs,
            s7: params.vdw_shield.powi(7),
            rc: params.r_nonb,
            coulomb_k: params.coulomb_k,
        }
    }

    /// The non-bonded cutoff the table was built for.
    pub fn cutoff(&self) -> f64 {
        self.rc
    }

    /// The pair terms at `r < cutoff()`:
    ///
    /// ```text
    /// H(r)    = k·Tap(r)·(r³ + γ⁻³)^{−1/3}
    /// E_vdw   = Tap(r)·D·(e² − 2e),  e = exp(−α(f13 − r_v)),
    /// f13(r)  = (r⁷ + s⁷)^{1/7}   (ReaxFF's inner shielding: saturates
    ///           at the core radius s, so bonded pairs stay off the wall)
    /// ```
    ///
    /// One taper for both terms, one `cbrt` and one `powf`; the
    /// derivatives of the shield and of `f13` are derived from the
    /// values (`d(x^p) = p·x^p/x`) rather than from a second power.
    #[inline(always)]
    pub fn terms(&self, r: f64, ti: usize, tj: usize) -> PairTerms {
        debug_assert!(r < self.rc);
        let c = &self.coeffs[ti * self.ntypes + tj];
        let (tap, dtap) = taper(r, self.rc);
        let r2 = r * r;
        let r3 = r2 * r;

        let denom = r3 + c.g3;
        let shield = 1.0 / denom.cbrt();
        let dshield = -r2 * shield / denom;
        let k = self.coulomb_k;

        let r6 = r3 * r3;
        let sum7 = r6 * r + self.s7;
        let f13 = sum7.powf(1.0 / 7.0);
        let df13 = r6 * f13 / sum7;
        let e1 = (-c.alpha * (f13 - c.rv)).exp();
        let morse = c.d * (e1 * e1 - 2.0 * e1);
        let dmorse = c.d * (-2.0 * c.alpha * e1 * e1 + 2.0 * c.alpha * e1) * df13;

        PairTerms {
            e_vdw: morse * tap,
            de_vdw: dmorse * tap + morse * dtap,
            h: k * tap * shield,
            dh: k * (dtap * shield + tap * dshield),
        }
    }
}

/// One in-cutoff neighbor of the atom a `PairWalk` row belongs to.
pub(crate) struct Hit {
    /// The neighbor's owner row (itself, or a ghost's local original).
    pub owner: usize,
    pub typ: usize,
    /// `xᵢ − xⱼ` and its length.
    pub d: [f64; 3],
    pub r: f64,
}

/// The by-value reader both non-bonded passes walk the full list with:
/// the list's within-cutoff walk, ghosts folded onto their owners.
#[derive(Clone, Copy)]
pub(crate) struct PairWalk<'a> {
    within: Within<'a>,
    typ: &'a [i32],
    owner: &'a [usize],
    nlocal: usize,
}

impl<'a> PairWalk<'a> {
    pub fn new(atoms: &'a AtomData, list: &'a NeighborList, ghosts: &'a GhostMap, rc: f64) -> Self {
        assert!(!list.half, "ReaxFF non-bonded terms need a full list");
        PairWalk {
            within: list.within(atoms.x.h_view(), rc),
            typ: atoms.typ.h_view().as_slice(),
            owner: &ghosts.owner,
            nlocal: atoms.nlocal,
        }
    }

    #[inline(always)]
    pub fn typ(self, i: usize) -> usize {
        self.typ[i] as usize
    }

    /// Call `f` for every neighbor of `i` inside the cutoff, in list
    /// order.
    #[inline(always)]
    pub fn row(self, i: usize, mut f: impl FnMut(Hit)) {
        self.within.row::<TOWARD_I>(i, |j, d, rsq| {
            f(Hit {
                owner: if j < self.nlocal {
                    j
                } else {
                    self.owner[j - self.nlocal]
                },
                typ: self.typ[j] as usize,
                d,
                r: rsq.sqrt(),
            })
        });
    }
}

/// Compute van der Waals + Coulomb forces over the full neighbor list,
/// one-sided (each atom writes only its own force row — the newton-off
/// strategy of §4.1, so no reverse communication is needed). `q` holds
/// the equilibrated charges of *local* atoms. With `eflag` returns
/// `(e_vdw, e_coulomb_pairs, virial)`; without, the tallies are skipped
/// and the return is all zeros.
#[expect(clippy::too_many_arguments, reason = "each input has its own owner")]
pub fn compute_nonbonded(
    atoms: &AtomData,
    list: &NeighborList,
    ghosts: &GhostMap,
    q: &[f64],
    table: &PairTable,
    forces: &mut [[f64; 3]],
    eflag: bool,
    space: &Space,
) -> (f64, f64, f64) {
    let walk = PairWalk::new(atoms, list, ghosts, table.rc);
    assert!(q.len() >= atoms.nlocal);
    space.parallel_reduce_parts(
        "NonbondedCompute",
        atoms.nlocal,
        parts::elements(forces),
        (0.0f64, 0.0f64, 0.0f64),
        |i, row| {
            let ti = walk.typ(i);
            let qi = q[i];
            let mut fi = [0.0f64; 3];
            let mut tally = (0.0, 0.0, 0.0);
            walk.row(i, |hit| {
                let t = table.terms(hit.r, ti, hit.typ);
                let qq = qi * q[hit.owner];
                let fpair = -(t.de_vdw + t.dh * qq) / hit.r; // force on i along +d
                for (f, d) in fi.iter_mut().zip(hit.d) {
                    *f += fpair * d;
                }
                if eflag {
                    // One-sided: each pair visited twice, half the energy.
                    tally.0 += 0.5 * t.e_vdw;
                    tally.1 += 0.5 * t.h * qq;
                    for d in hit.d {
                        tally.2 += 0.5 * fpair * d * d;
                    }
                }
            });
            for (f, add) in row.iter_mut().zip(fi) {
                *f += add;
            }
            tally
        },
        |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pair terms as they were written before the table: type
    /// mixing, two tapers, four `powf` and two `powi` per pair. Kept as
    /// the oracle for [`PairTable::terms`].
    mod reference {
        use super::*;

        pub fn coulomb_hij(r: f64, gamma_ij: f64, params: &ReaxParams) -> (f64, f64) {
            if r >= params.r_nonb {
                return (0.0, 0.0);
            }
            let (tap, dtap) = taper(r, params.r_nonb);
            let g3 = 1.0 / (gamma_ij * gamma_ij * gamma_ij);
            let denom = r * r * r + g3;
            let shield = denom.powf(-1.0 / 3.0);
            let dshield = -(r * r) * denom.powf(-4.0 / 3.0);
            let k = params.coulomb_k;
            (k * tap * shield, k * (dtap * shield + tap * dshield))
        }

        pub fn gamma_ij(params: &ReaxParams, ti: usize, tj: usize) -> f64 {
            (params.elements[ti].gamma * params.elements[tj].gamma).sqrt()
        }

        pub fn vdw(r: f64, ti: usize, tj: usize, params: &ReaxParams) -> (f64, f64) {
            if r >= params.r_nonb {
                return (0.0, 0.0);
            }
            let ei = &params.elements[ti];
            let ej = &params.elements[tj];
            let d = (ei.vdw_d * ej.vdw_d).sqrt();
            let alpha = 0.5 * (ei.vdw_alpha + ej.vdw_alpha);
            let rv = 0.5 * (ei.vdw_r + ej.vdw_r);
            let s7 = params.vdw_shield.powi(7);
            let r7 = r.powi(7);
            let f13 = (r7 + s7).powf(1.0 / 7.0);
            let df13 = r.powi(6) * (r7 + s7).powf(1.0 / 7.0 - 1.0);
            let e1 = (-alpha * (f13 - rv)).exp();
            let morse = d * (e1 * e1 - 2.0 * e1);
            let dmorse = d * (-2.0 * alpha * e1 * e1 + 2.0 * alpha * e1) * df13;
            let (tap, dtap) = taper(r, params.r_nonb);
            (morse * tap, dmorse * tap + morse * dtap)
        }
    }

    fn hns() -> (ReaxParams, PairTable) {
        let p = ReaxParams::hns_like();
        let t = PairTable::new(&p);
        (p, t)
    }

    #[test]
    fn terms_match_the_retained_originals_for_all_16_type_pairs() {
        let (p, table) = hns();
        let mut worst = 0.0f64;
        for ti in 0..4 {
            for tj in 0..4 {
                let c = table.coeffs[ti * 4 + tj];
                let mut r = 0.5 + 1e-3;
                while r < 8.0 {
                    let t = table.terms(r, ti, tj);
                    let (e, de) = reference::vdw(r, ti, tj, &p);
                    let (h, dh) = reference::coulomb_hij(r, reference::gamma_ij(&p, ti, tj), &p);
                    // `e² − 2e` and `dmorse·tap + morse·dtap` cancel near
                    // the Morse zero and minimum, so the vdW terms are
                    // held relative to the size of what cancels.
                    let (tap, dtap) = taper(r, p.r_nonb);
                    let e_scale = e.abs().max(c.d * tap);
                    let de_scale = de.abs().max(c.d * (c.alpha * tap + dtap.abs()));
                    for (new, old, scale) in [
                        (t.e_vdw, e, e_scale),
                        (t.de_vdw, de, de_scale),
                        (t.h, h, h.abs()),
                        (t.dh, dh, dh.abs()),
                    ] {
                        let rel = (new - old).abs() / scale;
                        worst = worst.max(rel);
                        assert!(rel <= 1e-12, "types {ti},{tj} r={r}: {new} vs {old}");
                    }
                    r += 0.0137;
                }
            }
        }
        assert!(worst > 0.0, "bit-identical: the oracle is not the old code");
    }

    #[test]
    fn coulomb_is_shielded_at_short_range() {
        let (p, table) = hns();
        // At r → 0 the shielded kernel stays finite: k·γ.
        let gamma = p.elements[0].gamma;
        let h0 = table.terms(1e-9, 0, 0).h;
        assert!((h0 - p.coulomb_k * gamma).abs() < 1e-3);
        // At long range (inside taper) it approaches k/r.
        let h5 = table.terms(5.0, 0, 0).h;
        let bare = p.coulomb_k / 5.0 * taper(5.0, p.r_nonb).0;
        assert!((h5 - bare).abs() / bare < 0.01);
    }

    #[test]
    fn coulomb_derivative_matches_fd() {
        let (_, table) = hns();
        for &r in &[0.8f64, 2.0, 4.5, 7.0] {
            let h = 1e-6;
            let fd = (table.terms(r + h, 0, 3).h - table.terms(r - h, 0, 3).h) / (2.0 * h);
            let an = table.terms(r, 0, 3).dh;
            assert!((an - fd).abs() < 1e-6 * fd.abs().max(1e-6), "r={r}");
        }
    }

    #[test]
    fn vdw_has_minimum_near_rv_and_shielded_core() {
        let (p, table) = hns();
        let vdw = |r: f64| table.terms(r, 0, 0).e_vdw;
        let rv = p.elements[0].vdw_r;
        let e_min = vdw(rv);
        assert!(e_min < 0.0);
        // Repulsive inside the minimum but *bounded* at bonding
        // distances thanks to the inner shielding.
        assert!(vdw(rv - 1.2) > e_min);
        let e_core = vdw(1.0);
        assert!(e_core < 1.0, "core repulsion {e_core} eV");
        assert!((vdw(1e-6) - vdw(0.5)).abs() < 0.05, "core not flat");
    }

    #[test]
    fn vdw_derivative_matches_fd() {
        let (_, table) = hns();
        for &r in &[2.5f64, 3.5, 5.0, 7.5] {
            let h = 1e-6;
            let fd = (table.terms(r + h, 0, 1).e_vdw - table.terms(r - h, 0, 1).e_vdw) / (2.0 * h);
            let an = table.terms(r, 0, 1).de_vdw;
            assert!((an - fd).abs() < 1e-7, "r={r}: {an} vs {fd}");
        }
    }
}
