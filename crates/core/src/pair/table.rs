//! Tabulated pair potential: piecewise-linear interpolation of energy
//! and force on a uniform `r²` grid (the LAMMPS `pair_style table`
//! `linear` mode, which GPU ports favor because lookups vectorize).

use super::TwoBody;

/// A tabulated isotropic pair potential.
#[derive(Debug, Clone)]
pub struct PairTable {
    name: &'static str,
    cut: f64,
    rsq_lo: f64,
    drsq_inv: f64,
    /// Sampled (fpair, energy) at uniform r² knots.
    knots: Vec<(f64, f64)>,
}

impl PairTable {
    /// Tabulate `source` between `r_lo` and `cut` with `n` knots on a
    /// uniform r² grid.
    pub fn tabulate<P: TwoBody>(
        source: &P,
        name: &'static str,
        r_lo: f64,
        cut: f64,
        n: usize,
    ) -> Self {
        assert!(n >= 2 && cut > r_lo && r_lo > 0.0);
        let rsq_lo = r_lo * r_lo;
        let rsq_hi = cut * cut;
        let drsq = (rsq_hi - rsq_lo) / (n - 1) as f64;
        let knots = (0..n)
            .map(|k| source.pair(rsq_lo + k as f64 * drsq, 0, 0))
            .collect();
        PairTable {
            name,
            cut,
            rsq_lo,
            drsq_inv: 1.0 / drsq,
            knots,
        }
    }
}

impl TwoBody for PairTable {
    fn type_name(&self) -> &'static str {
        self.name
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
        let t = ((rsq - self.rsq_lo) * self.drsq_inv).max(0.0);
        let k = (t as usize).min(self.knots.len() - 2);
        let frac = t - k as f64;
        let (f0, e0) = self.knots[k];
        let (f1, e1) = self.knots[k + 1];
        (f0 + (f1 - f0) * frac, e0 + (e1 - e0) * frac)
    }

    fn flops_per_pair(&self) -> f64 {
        12.0
    }
}

#[cfg(test)]
mod tests {
    use super::super::lj::LjCut;
    use super::*;

    #[test]
    fn table_approximates_lj() {
        let lj = LjCut::single_type(1.0, 1.0, 2.5);
        let table = PairTable::tabulate(&lj, "lj/table", 0.8, 2.5, 4096);
        for &r in &[0.9f64, 1.1, 1.5, 2.0, 2.4] {
            let (fa, ea) = lj.pair(r * r, 0, 0);
            let (ft, et) = table.pair(r * r, 0, 0);
            assert!((fa - ft).abs() < 1e-3 * fa.abs().max(1.0), "r={r}");
            assert!((ea - et).abs() < 1e-3, "r={r}");
        }
    }

    #[test]
    fn clamps_below_table_start() {
        let lj = LjCut::single_type(1.0, 1.0, 2.5);
        let table = PairTable::tabulate(&lj, "lj/table", 0.8, 2.5, 64);
        // Below r_lo: clamped to the first segment, no panic.
        let (f, _) = table.pair(0.3, 0, 0);
        assert!(f.is_finite());
    }
}
