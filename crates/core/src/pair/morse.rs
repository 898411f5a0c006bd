//! The Morse potential: `E = D₀[e^{−2α(r−r₀)} − 2e^{−α(r−r₀)}]`.
//!
//! A second simple pairwise style demonstrating that [`super::PairKokkos`]
//! is a single-source driver (§4.1: the non-Kokkos implementation
//! duplicates this logic per style; the Kokkos one does not).

use super::TwoBody;

#[derive(Debug, Clone, Copy)]
pub struct Morse {
    pub d0: f64,
    pub alpha: f64,
    pub r0: f64,
    pub cut: f64,
    offset: f64,
}

impl Morse {
    pub fn new(d0: f64, alpha: f64, r0: f64, cut: f64) -> Self {
        let e = (-(alpha) * (cut - r0)).exp();
        Morse {
            d0,
            alpha,
            r0,
            cut,
            offset: d0 * (e * e - 2.0 * e),
        }
    }
}

impl TwoBody for Morse {
    fn type_name(&self) -> &'static str {
        "morse"
    }

    fn ntypes(&self) -> usize {
        1
    }

    fn cutsq(&self, _ti: usize, _tj: usize) -> f64 {
        self.cut * self.cut
    }

    fn max_cutoff(&self) -> f64 {
        self.cut
    }

    #[inline(always)]
    fn pair(&self, rsq: f64, _ti: usize, _tj: usize) -> (f64, f64) {
        let r = rsq.sqrt();
        let e = (-self.alpha * (r - self.r0)).exp();
        // dE/dr = D0 * (-2α e² + 2α e); F = -dE/dr; fpair = F / r.
        let dedr = self.d0 * (-2.0 * self.alpha * e * e + 2.0 * self.alpha * e);
        let fpair = -dedr / r;
        let energy = self.d0 * (e * e - 2.0 * e) - self.offset;
        (fpair, energy)
    }

    fn flops_per_pair(&self) -> f64 {
        // sqrt + exp dominate; count exp as ~20 flops.
        40.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_at_r0() {
        let m = Morse::new(1.0, 2.0, 1.2, 5.0);
        let (fpair, e) = m.pair(1.2 * 1.2, 0, 0);
        assert!(fpair.abs() < 1e-12);
        assert!((e - (-1.0 - m.offset)).abs() < 1e-9);
    }

    #[test]
    fn force_is_minus_denergy_dr() {
        let m = Morse::new(0.9, 1.7, 1.0, 4.0);
        for &r in &[0.8f64, 1.0, 1.5, 2.5, 3.5] {
            let h = 1e-6;
            let (_, ep) = m.pair((r + h) * (r + h), 0, 0);
            let (_, em) = m.pair((r - h) * (r - h), 0, 0);
            let dedr = (ep - em) / (2.0 * h);
            let (fpair, _) = m.pair(r * r, 0, 0);
            assert!((fpair * r + dedr).abs() < 1e-5);
        }
    }

    #[test]
    fn energy_zero_at_cutoff() {
        let m = Morse::new(1.0, 2.0, 1.2, 5.0);
        let (_, e) = m.pair(25.0 * (1.0 - 1e-12), 0, 0);
        assert!(e.abs() < 1e-9);
    }
}
