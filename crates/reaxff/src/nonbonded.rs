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
//!
//! Both walks evaluate each unordered pair once: the reader reads the
//! full list but keeps a pair from one of its two rows only (the rule is
//! at [`PairWalk::half_row`]). The force kernel writes `+F` to the row's
//! atom and `−F` to the neighbor's owner through a pooled `ScatterView`
//! (§4.1's deconfliction), and the matrix stores one triangle and adds
//! the other inside its SpMV.

use crate::params::ReaxParams;
use crate::taper::taper;
use lkk_core::atom::AtomData;
use lkk_core::comm::GhostMap;
use lkk_core::neighbor::{NeighborList, Within, TOWARD_I};
use lkk_kokkos::{parts, ScatterMode, ScatterView, Space};

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

    /// Call `f` for every neighbor of `i` inside the cutoff whose owner
    /// passes `keep`, in list order. The rest cost no `sqrt`.
    #[inline(always)]
    fn walk(self, i: usize, keep: impl Fn(usize) -> bool, mut f: impl FnMut(Hit)) {
        self.within.row::<TOWARD_I>(i, |j, d, rsq| {
            let owner = if j < self.nlocal {
                j
            } else {
                self.owner[j - self.nlocal]
            };
            if keep(owner) {
                f(Hit {
                    owner,
                    typ: self.typ[j] as usize,
                    d,
                    r: rsq.sqrt(),
                })
            }
        });
    }

    /// The full row: every in-cutoff neighbor of `i`, so each pair is
    /// met from both of its rows. The one-sided oracles read it.
    #[cfg(test)]
    #[inline(always)]
    pub fn row(self, i: usize, f: impl FnMut(Hit)) {
        self.walk(i, |_| true, f);
    }

    /// Call `f` for the neighbors of `i` inside the cutoff whose pair
    /// this row keeps, in list order: a hit `(i, o)`, `o` the neighbor's
    /// owner, is kept iff `(o > i) == (o + i even)`. Of the pair's two
    /// hits `(i, o)` and `(o, i)` exactly one passes, and the parity
    /// alternates which one, so every row keeps about half of its hits
    /// (`o > i` alone would give the low rows nearly all the work and
    /// unbalance the static chunks of a dispatch).
    ///
    /// `(i, o)` names one pair because comm set-up requires the box to
    /// be at least twice the ghost cutoff in every dimension: within the
    /// cutoff an atom never meets its own image (`o ≠ i`, asserted) and
    /// never meets two images of one neighbor.
    #[inline(always)]
    pub fn half_row(self, i: usize, f: impl FnMut(Hit)) {
        let keep = |o: usize| {
            assert_ne!(o, i, "atom {i} meets its own image inside the cutoff");
            (o > i) == (o + i).is_multiple_of(2)
        };
        self.walk(i, keep, f);
    }
}

/// Compute van der Waals + Coulomb forces, each pair once: a work item
/// walks its [`PairWalk::half_row`], adds `+F` to its own atom and `−F`
/// to the neighbor's owner through `scatter` (reshaped in place to the
/// owned atoms in `space`'s default mode, never reallocated below its
/// peak), and the scattered forces are then added into `forces`. All
/// writes land on owner rows, so no reverse communication is needed.
/// `q` holds the equilibrated charges of *local* atoms. With `eflag`
/// returns `(e_vdw, e_coulomb_pairs, virial)`; without, the tallies are
/// skipped and the return is all zeros.
#[expect(clippy::too_many_arguments, reason = "each input has its own owner")]
pub fn compute_nonbonded(
    atoms: &AtomData,
    list: &NeighborList,
    ghosts: &GhostMap,
    q: &[f64],
    table: &PairTable,
    scatter: &mut ScatterView,
    forces: &mut [[f64; 3]],
    eflag: bool,
    space: &Space,
) -> (f64, f64, f64) {
    let walk = PairWalk::new(atoms, list, ghosts, table.rc);
    let n = atoms.nlocal;
    assert!(q.len() >= n);
    scatter.ensure(n, 3, ScatterMode::default_for(space));
    let tally = space.parallel_reduce_parts(
        "NonbondedCompute",
        n,
        parts::scatter(scatter),
        (0.0f64, 0.0f64, 0.0f64),
        |i, f| {
            let ti = walk.typ(i);
            let qi = q[i];
            let mut fi = [0.0f64; 3];
            let mut tally = (0.0, 0.0, 0.0);
            walk.half_row(i, |hit| {
                let t = table.terms(hit.r, ti, hit.typ);
                let qq = qi * q[hit.owner];
                let fpair = -(t.de_vdw + t.dh * qq) / hit.r; // force on i along +d
                let fd = hit.d.map(|d| fpair * d);
                for (a, b) in fi.iter_mut().zip(fd) {
                    *a += b;
                }
                f.add3(hit.owner, fd.map(|x| -x));
                if eflag {
                    tally.0 += t.e_vdw;
                    tally.1 += t.h * qq;
                    for d in hit.d {
                        tally.2 += fpair * d * d;
                    }
                }
            });
            f.add3(i, fi);
            tally
        },
        |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
    );
    scatter.contribute_into(forces[..n].as_flattened_mut());
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkk_core::comm::build_ghosts;
    use lkk_core::neighbor::NeighborSettings;

    /// The pair terms as they were written before the table (type
    /// mixing, two tapers, four `powf` and two `powi` per pair), kept as
    /// the oracle for [`PairTable::terms`]; and the force kernel as it
    /// was before the half walk, the oracle for [`compute_nonbonded`].
    mod reference {
        use super::*;

        /// Every pair met from both of its rows, each work item writing
        /// only its own force row and tallying half of each pair.
        pub fn one_sided_nonbonded(
            frame: &Frame,
            q: &[f64],
            table: &PairTable,
            forces: &mut [[f64; 3]],
        ) -> (f64, f64, f64) {
            let walk = PairWalk::new(&frame.atoms, &frame.list, &frame.ghosts, table.rc);
            let mut tally = (0.0, 0.0, 0.0);
            for (i, fi) in forces.iter_mut().enumerate() {
                let ti = walk.typ(i);
                walk.row(i, |hit| {
                    let t = table.terms(hit.r, ti, hit.typ);
                    let qq = q[i] * q[hit.owner];
                    let fpair = -(t.de_vdw + t.dh * qq) / hit.r;
                    for (f, d) in fi.iter_mut().zip(hit.d) {
                        *f += fpair * d;
                    }
                    tally.0 += 0.5 * t.e_vdw;
                    tally.1 += 0.5 * t.h * qq;
                    for d in hit.d {
                        tally.2 += 0.5 * fpair * d * d;
                    }
                });
            }
            tally
        }

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

    /// The 486-atom 3×3×3 HNS crystal and what a walk needs of it.
    pub struct Frame {
        atoms: AtomData,
        ghosts: GhostMap,
        list: NeighborList,
    }

    fn crystal_486(rc: f64) -> Frame {
        let (pos, types, domain) = crate::hns::crystal(3, 3, 3, 7.5);
        let mut atoms = AtomData::from_positions(&pos);
        for (i, &t) in types.iter().enumerate() {
            atoms.typ.h_view_mut().set([i], t);
        }
        atoms.wrap_positions(&domain);
        let settings = NeighborSettings::new(rc, 0.3, false);
        let ghosts = build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let list = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        Frame {
            atoms,
            ghosts,
            list,
        }
    }

    #[test]
    fn half_rows_keep_every_in_cutoff_pair_once_and_half_of_each_row() {
        let (_, table) = hns();
        let frame = crystal_486(table.rc);
        let walk = PairWalk::new(&frame.atoms, &frame.list, &frame.ghosts, table.rc);
        let (mut full, mut kept) = (Vec::new(), Vec::new());
        for i in 0..frame.atoms.nlocal {
            let (full_before, kept_before) = (full.len(), kept.len());
            walk.row(i, |hit| full.push((i.min(hit.owner), i.max(hit.owner))));
            walk.half_row(i, |hit| kept.push((i.min(hit.owner), i.max(hit.owner))));
            let (row, half) = (full.len() - full_before, kept.len() - kept_before);
            let expected = row as f64 / 2.0;
            assert!(
                (half as f64 - expected).abs() <= 0.5 * expected,
                "row {i} keeps {half} of {row} hits"
            );
        }
        full.sort_unstable();
        kept.sort_unstable();
        let npairs = kept.len();
        assert!(npairs > 10_000, "{npairs} pairs");
        // The full walk meets every pair from both rows; the half walk
        // keeps each of them once.
        assert_eq!(full.len(), 2 * npairs);
        full.dedup();
        kept.dedup();
        assert_eq!(kept.len(), npairs, "a pair kept twice");
        assert_eq!(kept, full);
    }

    #[test]
    fn half_kernel_matches_the_one_sided_oracle() {
        let (_, table) = hns();
        let frame = crystal_486(table.rc);
        let n = frame.atoms.nlocal;
        // A neutral charge pattern with every sign pairing.
        let mut q: Vec<f64> = (0..n).map(|i| 0.4 * (0.37 * i as f64).sin()).collect();
        let mean = q.iter().sum::<f64>() / n as f64;
        q.iter_mut().for_each(|x| *x -= mean);
        let mut oracle = vec![[0.0; 3]; n];
        let want = reference::one_sided_nonbonded(&frame, &q, &table, &mut oracle);
        let scale = oracle.iter().flatten().fold(0.0f64, |m, f| m.max(f.abs()));
        assert!(scale > 0.1, "force scale {scale}");
        for space in [
            Space::Serial,
            Space::Threads,
            Space::device(lkk_gpusim::GpuArch::h100()),
        ] {
            let mut scatter = ScatterView::for_space(n, 3, &space);
            let mut forces = vec![[0.0; 3]; n];
            let got = compute_nonbonded(
                &frame.atoms,
                &frame.list,
                &frame.ghosts,
                &q,
                &table,
                &mut scatter,
                &mut forces,
                true,
                &space,
            );
            for (a, b) in forces.iter().flatten().zip(oracle.iter().flatten()) {
                assert!((a - b).abs() <= 1e-12 * scale, "{a} vs {b} on {space:?}");
            }
            for (a, b) in [(got.0, want.0), (got.1, want.1), (got.2, want.2)] {
                assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b} on {space:?}");
            }
            let net = (0..3).map(|k| forces.iter().map(|f| f[k]).sum::<f64>());
            for total in net {
                assert!(total.abs() <= 1e-12 * scale * n as f64, "net force {total}");
            }
        }
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
