//! The Yukawa (screened Coulomb) potential: `E = A e^{−κr} / r`.

use super::TwoBody;

#[derive(Debug, Clone, Copy)]
pub struct Yukawa {
    pub a: f64,
    pub kappa: f64,
    pub cut: f64,
    offset: f64,
}

impl Yukawa {
    pub fn new(a: f64, kappa: f64, cut: f64) -> Self {
        Yukawa {
            a,
            kappa,
            cut,
            offset: a * (-kappa * cut).exp() / cut,
        }
    }
}

impl TwoBody for Yukawa {
    fn type_name(&self) -> &'static str {
        "yukawa"
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
        let screening = (-self.kappa * r).exp();
        let e_over_r = self.a * screening / r;
        // dE/dr = -A e^{-κr} (κ r + 1) / r²; fpair = -dE/dr / r.
        let fpair = e_over_r * (self.kappa * r + 1.0) / rsq;
        (fpair, e_over_r - self.offset)
    }

    fn flops_per_pair(&self) -> f64 {
        35.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repulsive_everywhere_for_positive_a() {
        let y = Yukawa::new(2.0, 1.5, 5.0);
        for &r in &[0.5f64, 1.0, 2.0, 4.0] {
            let (fpair, e) = y.pair(r * r, 0, 0);
            assert!(fpair > 0.0);
            assert!(e > -1e-12);
        }
    }

    #[test]
    fn force_is_minus_denergy_dr() {
        let y = Yukawa::new(1.3, 0.8, 6.0);
        for &r in &[0.7f64, 1.3, 2.9, 5.0] {
            let h = 1e-6;
            let (_, ep) = y.pair((r + h) * (r + h), 0, 0);
            let (_, em) = y.pair((r - h) * (r - h), 0, 0);
            let dedr = (ep - em) / (2.0 * h);
            let (fpair, _) = y.pair(r * r, 0, 0);
            assert!((fpair * r + dedr).abs() < 1e-5, "r = {r}");
        }
    }
}
