//! Long-range electrostatics: classic Ewald summation (the KSPACE
//! package of §3.1 — "long-range interactions that require Fourier
//! transforms and calculations in reciprocal space").
//!
//! The Coulomb sum is split by the screening parameter α into
//!
//! ```text
//! E = ½ Σ' q_i q_j erfc(α r_ij)/r_ij                  (real space)
//!   + (2π/V) Σ_{k≠0} e^{−k²/4α²}/k² · |S(k)|²          (reciprocal)
//!   − α/√π Σ q_i²                                      (self)
//! S(k) = Σ_i q_i e^{i k·r_i}
//! ```
//!
//! Correctness anchors (see tests): the **Madelung constant of
//! rock-salt NaCl** (−1.747 565), invariance of the total energy under
//! the α splitting parameter, and finite-difference forces.

use crate::atom::AtomData;
use crate::domain::Domain;
use lkk_kokkos::Space;

/// Complementary error function, Abramowitz & Stegun 7.1.26
/// (|error| < 1.5e-7 — the classic MD-code choice).
pub fn erfc(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let e = poly * (-x * x).exp();
    if sign > 0.0 {
        e
    } else {
        2.0 - e
    }
}

/// An Ewald solver for a fixed box geometry.
#[derive(Debug, Clone)]
pub struct Ewald {
    /// Screening parameter α (1/length).
    pub alpha: f64,
    /// Real-space cutoff.
    pub r_cut: f64,
    /// Reciprocal-space cutoff in integer lattice units.
    pub k_max: i32,
    /// Coulomb constant (units-dependent prefactor for q²/r).
    pub coulomb_k: f64,
}

impl Ewald {
    /// Standard accuracy-balanced parameters for a given box: α set so
    /// real-space terms decay to ~1e-8 at `r_cut`, k_max to match.
    pub fn for_box(domain: &Domain, r_cut: f64, coulomb_k: f64) -> Ewald {
        let alpha = 3.5 / r_cut; // erfc(3.5) ≈ 7e-7
        let l_min = domain
            .lengths()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        // exp(−k²/4α²) ≤ ~1e-8 at k = 2π k_max / L.
        let k_max = ((2.0 * alpha * 3.2 * l_min) / (2.0 * std::f64::consts::PI)).ceil() as i32;
        Ewald {
            alpha,
            r_cut,
            k_max,
            coulomb_k,
        }
    }

    /// Total electrostatic energy and per-atom forces for owned atoms.
    /// Charges must sum to (near) zero. O(N²) real-space pair loop over
    /// minimum images (the solver is an analysis/reference kernel; the
    /// production short-range path would reuse the neighbor list).
    pub fn compute(
        &self,
        atoms: &AtomData,
        domain: &Domain,
        space: &Space,
    ) -> (f64, Vec<[f64; 3]>) {
        let n = atoms.nlocal;
        let xh = atoms.x.h_view();
        let qh = atoms.q.h_view();
        let q: Vec<f64> = (0..n).map(|i| qh.at([i])).collect();
        let pos: Vec<[f64; 3]> = (0..n)
            .map(|i| [xh.at([i, 0]), xh.at([i, 1]), xh.at([i, 2])])
            .collect();
        let qtot: f64 = q.iter().sum();
        assert!(
            qtot.abs() < 1e-8,
            "Ewald requires a neutral system (Σq = {qtot})"
        );
        let alpha = self.alpha;
        let kc = self.coulomb_k;
        let two_over_sqrt_pi = 2.0 / std::f64::consts::PI.sqrt();

        // --- Real space (pairwise, minimum image). ---
        let pos_ref = &pos;
        let q_ref = &q;
        let real: Vec<(f64, [f64; 3])> = (0..n)
            .map(|i| {
                let mut e = 0.0;
                let mut f = [0.0f64; 3];
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let d = domain.min_image(&pos_ref[i], &pos_ref[j]);
                    let rsq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    if rsq >= self.r_cut * self.r_cut {
                        continue;
                    }
                    let r = rsq.sqrt();
                    let qq = kc * q_ref[i] * q_ref[j];
                    let erfc_ar = erfc(alpha * r);
                    e += 0.5 * qq * erfc_ar / r;
                    let dedr = -qq
                        * (erfc_ar / rsq
                            + two_over_sqrt_pi * alpha * (-alpha * alpha * rsq).exp() / r);
                    // d = x_i − x_j; force on i = −dE/dx_i.
                    for k in 0..3 {
                        f[k] -= dedr * d[k] / r;
                    }
                }
                (e, f)
            })
            .collect();
        let e_real: f64 = real.iter().map(|r| r.0).sum();
        let mut forces: Vec<[f64; 3]> = real.iter().map(|r| r.1).collect();

        // --- Reciprocal space. ---
        let l = domain.lengths();
        let volume = domain.volume();
        let mut e_recip = 0.0;
        let kmax = self.k_max;
        let mut kvecs: Vec<[f64; 3]> = Vec::new();
        for kx in -kmax..=kmax {
            for ky in -kmax..=kmax {
                for kz in -kmax..=kmax {
                    if kx == 0 && ky == 0 && kz == 0 {
                        continue;
                    }
                    kvecs.push([
                        2.0 * std::f64::consts::PI * kx as f64 / l[0],
                        2.0 * std::f64::consts::PI * ky as f64 / l[1],
                        2.0 * std::f64::consts::PI * kz as f64 / l[2],
                    ]);
                }
            }
        }
        // Structure factors per k (parallel over k-vectors — the
        // KSPACE kernels are reductions over atoms per k).
        let sf: Vec<(f64, f64, f64)> = {
            let mut out = Vec::with_capacity(kvecs.len());
            let chunks: Vec<(f64, f64, f64)> = kvecs
                .iter()
                .map(|kv| {
                    let ksq = kv[0] * kv[0] + kv[1] * kv[1] + kv[2] * kv[2];
                    let damp = (-ksq / (4.0 * alpha * alpha)).exp() / ksq;
                    let (mut s_re, mut s_im) = (0.0, 0.0);
                    for (p, &qi) in pos_ref.iter().zip(q_ref) {
                        let phase = kv[0] * p[0] + kv[1] * p[1] + kv[2] * p[2];
                        s_re += qi * phase.cos();
                        s_im += qi * phase.sin();
                    }
                    (damp, s_re, s_im)
                })
                .collect();
            out.extend(chunks);
            out
        };
        let pref = 2.0 * std::f64::consts::PI / volume * kc;
        for ((damp, s_re, s_im), _) in sf.iter().zip(&kvecs) {
            e_recip += pref * damp * (s_re * s_re + s_im * s_im);
        }
        // Reciprocal forces:
        // F_i = (4π/V) q_i Σ_k (k̂ damp) [sin(k·r_i) S_re − cos(k·r_i) S_im].
        space.parallel_for("EwaldRecipForce", n, |_| {});
        let fpref = 4.0 * std::f64::consts::PI / volume * kc;
        for (i, p) in pos_ref.iter().enumerate() {
            let mut f = [0.0f64; 3];
            for ((damp, s_re, s_im), kv) in sf.iter().zip(&kvecs) {
                let phase = kv[0] * p[0] + kv[1] * p[1] + kv[2] * p[2];
                let coeff = damp * (phase.sin() * s_re - phase.cos() * s_im);
                for k in 0..3 {
                    f[k] += fpref * q_ref[i] * coeff * kv[k];
                }
            }
            for k in 0..3 {
                forces[i][k] += f[k];
            }
        }

        // --- Self energy. ---
        let e_self: f64 =
            -kc * alpha / std::f64::consts::PI.sqrt() * q.iter().map(|&qi| qi * qi).sum::<f64>();

        (e_real + e_recip + e_self, forces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_matches_known_values() {
        // erfc(0) = 1, erfc(∞) → 0, erfc(1) ≈ 0.15729921.
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!(erfc(6.0) < 1e-15);
        assert!((erfc(1.0) - 0.157_299_21).abs() < 2e-7);
        assert!((erfc(-1.0) - (2.0 - 0.157_299_21)).abs() < 2e-7);
        assert!((erfc(0.5) - 0.479_500_12).abs() < 2e-7);
    }

    /// Rock-salt NaCl: the energy per ion pair must reproduce the
    /// Madelung constant, E = −M·k·q²/r₀ with M = 1.747 564 6.
    #[test]
    fn nacl_madelung_constant() {
        let cells = 2usize; // 2×2×2 conventional cells = 64 ions
        let a = 2.0; // nearest-neighbor distance r0 = 1.0
        let mut positions = Vec::new();
        let mut charges = Vec::new();
        for ix in 0..(2 * cells) {
            for iy in 0..(2 * cells) {
                for iz in 0..(2 * cells) {
                    positions.push([
                        ix as f64 * a / 2.0,
                        iy as f64 * a / 2.0,
                        iz as f64 * a / 2.0,
                    ]);
                    charges.push(if (ix + iy + iz) % 2 == 0 { 1.0 } else { -1.0 });
                }
            }
        }
        let domain = Domain::cubic(a * cells as f64);
        let mut atoms = AtomData::from_positions(&positions);
        {
            let qh = atoms.q.h_view_mut();
            for (i, &qv) in charges.iter().enumerate() {
                qh.set([i], qv);
            }
        }
        let ewald = Ewald::for_box(&domain, 1.9, 1.0);
        let (e, forces) = ewald.compute(&atoms, &domain, &Space::Serial);
        let n_pairs = positions.len() as f64 / 2.0;
        let madelung = -e / n_pairs; // r0 = q = k = 1
        assert!(
            (madelung - 1.747_564_6).abs() < 2e-4,
            "Madelung constant = {madelung}"
        );
        // Perfect lattice: zero force on every ion.
        for f in &forces {
            for c in f {
                assert!(c.abs() < 1e-6, "residual force {c}");
            }
        }
    }

    /// The total is invariant under the α splitting parameter — the
    /// defining self-consistency of Ewald summation.
    #[test]
    fn energy_is_independent_of_alpha() {
        let positions = vec![
            [1.0, 1.2, 0.9],
            [3.1, 1.0, 1.1],
            [1.1, 3.0, 3.2],
            [2.9, 3.1, 0.8],
        ];
        let charges = [1.0, -1.0, -1.0, 1.0];
        let domain = Domain::cubic(4.0);
        let mut atoms = AtomData::from_positions(&positions);
        for (i, &qv) in charges.iter().enumerate() {
            atoms.q.h_view_mut().set([i], qv);
        }
        let mut energies = Vec::new();
        for &rc in &[1.6f64, 1.9] {
            let ewald = Ewald::for_box(&domain, rc, 1.0);
            energies.push(ewald.compute(&atoms, &domain, &Space::Serial).0);
        }
        assert!(
            (energies[0] - energies[1]).abs() < 5e-4 * energies[0].abs(),
            "{energies:?}"
        );
    }

    #[test]
    fn forces_match_finite_difference() {
        let positions = vec![
            [1.0, 1.2, 0.9],
            [3.1, 1.0, 1.1],
            [1.1, 3.0, 3.2],
            [2.9, 3.1, 0.8],
        ];
        let charges = [1.0, -1.0, -1.0, 1.0];
        let domain = Domain::cubic(4.0);
        let build = |pos: &[[f64; 3]]| -> AtomData {
            let mut atoms = AtomData::from_positions(pos);
            for (i, &qv) in charges.iter().enumerate() {
                atoms.q.h_view_mut().set([i], qv);
            }
            atoms
        };
        let ewald = Ewald::for_box(&domain, 1.9, 1.0);
        let atoms = build(&positions);
        let (_, forces) = ewald.compute(&atoms, &domain, &Space::Serial);
        let h = 1e-5;
        for a in 0..positions.len() {
            for k in 0..3 {
                let mut pp = positions.clone();
                let mut pm = positions.clone();
                pp[a][k] += h;
                pm[a][k] -= h;
                let ep = ewald.compute(&build(&pp), &domain, &Space::Serial).0;
                let em = ewald.compute(&build(&pm), &domain, &Space::Serial).0;
                let fd = -(ep - em) / (2.0 * h);
                assert!(
                    (forces[a][k] - fd).abs() < 1e-4 * fd.abs().max(1.0),
                    "atom {a} dir {k}: {} vs {fd}",
                    forces[a][k]
                );
            }
        }
    }

    #[test]
    fn charged_system_is_rejected() {
        let mut atoms = AtomData::from_positions(&[[1.0; 3], [2.0; 3]]);
        atoms.q.h_view_mut().set([0], 1.0); // net charge
        let domain = Domain::cubic(4.0);
        let ewald = Ewald::for_box(&domain, 1.5, 1.0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ewald.compute(&atoms, &domain, &Space::Serial)
        }));
        assert!(r.is_err());
    }
}
