//! The Lennard-Jones 12-6 potential (§4, case study 1).
//!
//! `E = 4ε[(σ/r)¹² − (σ/r)⁶]` for `r < r_c` (eq. 1 of the paper), with
//! an optional energy shift making `E(r_c) = 0` (LAMMPS
//! `pair_modify shift yes`), which we default to so microcanonical
//! energy conservation tests are clean.

use super::TwoBody;

/// LJ coefficients for one type pair, precomputed LAMMPS-style.
#[derive(Debug, Clone, Copy, Default)]
struct Coeff {
    lj1: f64, // 48 ε σ¹²
    lj2: f64, // 24 ε σ⁶
    lj3: f64, // 4 ε σ¹²
    lj4: f64, // 4 ε σ⁶
    offset: f64,
    cutsq: f64,
}

/// Lennard-Jones with per-type-pair coefficients.
#[derive(Debug, Clone)]
pub struct LjCut {
    ntypes: usize,
    coeff: Vec<Coeff>,
    max_cut: f64,
    shift: bool,
}

impl LjCut {
    /// `pair_style lj/cut <cut>` with `ntypes` atom types; coefficients
    /// must then be set per type pair.
    pub fn new(ntypes: usize) -> Self {
        LjCut {
            ntypes,
            coeff: vec![Coeff::default(); ntypes * ntypes],
            max_cut: 0.0,
            shift: true,
        }
    }

    /// Single-type convenience: `pair_coeff 1 1 ε σ` with cutoff `cut`.
    pub fn single_type(epsilon: f64, sigma: f64, cut: f64) -> Self {
        let mut p = Self::new(1);
        p.set_coeff(0, 0, epsilon, sigma, cut);
        p
    }

    /// Disable the cutoff energy shift (LAMMPS default behaviour).
    pub fn without_shift(mut self) -> Self {
        self.shift = false;
        for i in 0..self.ntypes {
            for j in 0..self.ntypes {
                let c = &mut self.coeff[i * self.ntypes + j];
                c.offset = 0.0;
            }
        }
        self
    }

    /// `pair_coeff i j ε σ cut` (0-based types; symmetric).
    pub fn set_coeff(&mut self, ti: usize, tj: usize, epsilon: f64, sigma: f64, cut: f64) {
        let s6 = sigma.powi(6);
        let s12 = s6 * s6;
        let offset = if self.shift {
            let rc6 = cut.powi(6);
            4.0 * epsilon * (s12 / (rc6 * rc6) - s6 / rc6)
        } else {
            0.0
        };
        let c = Coeff {
            lj1: 48.0 * epsilon * s12,
            lj2: 24.0 * epsilon * s6,
            lj3: 4.0 * epsilon * s12,
            lj4: 4.0 * epsilon * s6,
            offset,
            cutsq: cut * cut,
        };
        self.coeff[ti * self.ntypes + tj] = c;
        self.coeff[tj * self.ntypes + ti] = c;
        self.max_cut = self.max_cut.max(cut);
    }
}

impl TwoBody for LjCut {
    fn type_name(&self) -> &'static str {
        "lj/cut"
    }

    fn ntypes(&self) -> usize {
        self.ntypes
    }

    #[inline(always)]
    fn cutsq(&self, ti: usize, tj: usize) -> f64 {
        self.coeff[ti * self.ntypes + tj].cutsq
    }

    fn max_cutoff(&self) -> f64 {
        self.max_cut
    }

    #[inline(always)]
    fn pair(&self, rsq: f64, ti: usize, tj: usize) -> (f64, f64) {
        let c = &self.coeff[ti * self.ntypes + tj];
        let r2inv = 1.0 / rsq;
        let r6inv = r2inv * r2inv * r2inv;
        let forcelj = r6inv * (c.lj1 * r6inv - c.lj2);
        let fpair = forcelj * r2inv;
        let evdwl = r6inv * (c.lj3 * r6inv - c.lj4) - c.offset;
        (fpair, evdwl)
    }

    fn flops_per_pair(&self) -> f64 {
        // 3 sub + 3 mul + 2 add (rsq) + div + 2 mul (r6inv) + fma chain:
        // LAMMPS counts ~23 flops for the LJ inner loop.
        23.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_at_two_to_sixth() {
        let lj = LjCut::single_type(1.0, 1.0, 10.0);
        let rmin: f64 = 2.0_f64.powf(1.0 / 6.0);
        // Force magnitude ~ 0 at the minimum.
        let (fpair, e) = lj.pair(rmin * rmin, 0, 0);
        assert!(fpair.abs() < 1e-12);
        // Energy at minimum ≈ −ε (+ tiny shift from the far cutoff).
        assert!((e - (-1.0)).abs() < 1e-4, "e = {e}");
    }

    #[test]
    fn force_is_minus_denergy_dr() {
        let lj = LjCut::single_type(0.7, 1.1, 3.0);
        for &r in &[1.0f64, 1.2, 1.5, 2.0, 2.8] {
            let h = 1e-6;
            let (_, e_plus) = lj.pair((r + h) * (r + h), 0, 0);
            let (_, e_minus) = lj.pair((r - h) * (r - h), 0, 0);
            let dedr = (e_plus - e_minus) / (2.0 * h);
            let (fpair, _) = lj.pair(r * r, 0, 0);
            // F = fpair * r must equal -dE/dr.
            assert!(
                (fpair * r + dedr).abs() < 1e-5,
                "r={r}: fpair*r={} -dE/dr={}",
                fpair * r,
                -dedr
            );
        }
    }

    #[test]
    fn shift_zeroes_energy_at_cutoff() {
        let lj = LjCut::single_type(1.0, 1.0, 2.5);
        let (_, e) = lj.pair(2.5f64.powi(2) * (1.0 - 1e-12), 0, 0);
        assert!(e.abs() < 1e-9);
        let unshifted = LjCut::single_type(1.0, 1.0, 2.5).without_shift();
        let (_, e2) = lj.pair(1.0, 0, 0);
        let (_, e2u) = unshifted.pair(1.0, 0, 0);
        assert!((e2u - e2).abs() > 1e-4); // offset actually applied
    }

    #[test]
    fn mixed_types() {
        let mut lj = LjCut::new(2);
        lj.set_coeff(0, 0, 1.0, 1.0, 2.5);
        lj.set_coeff(0, 1, 1.5, 0.8, 2.0);
        lj.set_coeff(1, 1, 0.5, 1.2, 3.0);
        assert_eq!(lj.max_cutoff(), 3.0);
        assert_eq!(lj.cutsq(0, 1), 4.0);
        assert_eq!(lj.cutsq(1, 0), 4.0);
        // Symmetry of mixed pair.
        assert_eq!(lj.pair(1.1, 0, 1), lj.pair(1.1, 1, 0));
    }
}
