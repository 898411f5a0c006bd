//! Deterministic load balancing for the brick decomposition.
//!
//! LAMMPS ships `fix balance` to shift the processor grid's cut planes
//! when density is non-uniform (melt fronts, voids, the skewed
//! workloads TestSNAP-style studies use); the paper's strong-scaling
//! results (§5) assume work stays evenly spread. This module is the
//! geometry/arithmetic side of our equivalent: pure functions that turn
//! a per-dimension atom census into interior cut fractions for
//! [`crate::decomp::BrickDecomp::set_cuts`], and the
//! [`BalancePolicy`] knob the comm layer
//! ([`crate::comm::brick::BrickComm`]) consults.
//!
//! Everything here is a pure function of integer censuses — never
//! wall-clock — so every rank computes bitwise-identical cuts from the
//! exchanged histograms, and a balanced run's *trigger schedule* is a
//! pure function of the workload. See `docs/comm.md` for the full
//! determinism argument.

/// Weight source for the balancer's census.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalanceWeight {
    /// Weight every atom equally (the deterministic default: cuts are a
    /// pure function of the atom census).
    #[default]
    AtomCount,
    /// Weight each rank's atoms by its measured pair-force seconds per
    /// atom since the previous census. Wall-clock derived — cuts still
    /// agree bitwise *across ranks* (the measurements are exchanged),
    /// but differ run to run, perturbing trajectories the way
    /// `sort_every` does. Advisory; never part of a pinned baseline.
    PairTime,
}

/// When and how the brick decomposition rebalances. Installed per run
/// via `CommSpec::Brick { balance, .. }` (which reaches
/// [`crate::comm::brick::BrickComm::create_all`]); `None` keeps the
/// static uniform grid and the exchange sequence bit-identical to the
/// pre-balancer layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancePolicy {
    /// Exchange a census (and consider rebalancing) on every `every`-th
    /// `borders()` call; `0` disables balancing entirely.
    pub every: u64,
    /// Rebalance only when the census imbalance (max/mean owned atoms)
    /// exceeds this; `1.0` rebalances on any measurable skew.
    pub threshold: f64,
    /// Histogram bins per dimension for cut placement (resolution of
    /// the density estimate; cuts interpolate linearly within a bin).
    pub bins: usize,
    /// Weight source for the census.
    pub weight: BalanceWeight,
}

impl Default for BalancePolicy {
    fn default() -> Self {
        BalancePolicy {
            every: 1,
            threshold: 1.05,
            bins: 64,
            weight: BalanceWeight::AtomCount,
        }
    }
}

/// max/mean of a per-rank census: 1.0 = perfectly balanced. Integer
/// arithmetic until the final division, so every rank that holds the
/// same census computes the identical value.
pub fn census_imbalance(counts: &[u64]) -> f64 {
    let n = counts.len();
    if n == 0 {
        return 1.0;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = *counts.iter().max().unwrap();
    max as f64 * n as f64 / total as f64
}

/// Per-rank census weight in integer ticks: 1 for [`BalanceWeight::
/// AtomCount`]; for [`BalanceWeight::PairTime`], nanoseconds of
/// measured pair time per owned atom (floored at 1 so an idle or
/// just-started rank still counts its atoms).
pub fn weight_ticks(weight: BalanceWeight, seconds: f64, natoms: usize) -> u64 {
    match weight {
        BalanceWeight::AtomCount => 1,
        BalanceWeight::PairTime => {
            let per_atom = seconds * 1e9 / natoms.max(1) as f64;
            (per_atom.round() as u64).max(1)
        }
    }
}

/// Place `nparts - 1` interior cut fractions so each part holds an
/// equal share of the histogram's weight, interpolating linearly within
/// bins (`hist[b]` covers the fraction interval `[b/n, (b+1)/n)` of the
/// box). An all-zero histogram falls back to uniform cuts. The result
/// is non-decreasing but not width-clamped — callers follow with
/// [`clamp_cuts`], which also restores strict monotonicity.
pub fn cuts_from_histogram(hist: &[u64], nparts: usize) -> Vec<f64> {
    assert!(nparts >= 1);
    let nbins = hist.len();
    let mut cuts = Vec::with_capacity(nparts - 1);
    let total: u64 = hist.iter().sum();
    if total == 0 || nbins == 0 {
        for j in 1..nparts {
            cuts.push(j as f64 / nparts as f64);
        }
        return cuts;
    }
    // Walk the cumulative histogram once; the quantile targets are
    // increasing, so `b`/`cum` only move forward.
    let mut cum = 0u64; // weight strictly below bin `b`
    let mut b = 0usize;
    for j in 1..nparts {
        let target = total as f64 * j as f64 / nparts as f64;
        while b < nbins && ((cum + hist[b]) as f64) < target {
            cum += hist[b];
            b += 1;
        }
        let inside = if b < nbins && hist[b] > 0 {
            (target - cum as f64) / hist[b] as f64
        } else {
            0.0
        };
        cuts.push(((b as f64 + inside) / nbins as f64).clamp(0.0, 1.0));
    }
    cuts
}

/// Enforce a minimum slab width of `min_frac` between consecutive cuts
/// (and against the 0/1 box faces): the halo layer requires every
/// sub-domain to be at least `cutghost` wide. Requires feasibility
/// (`(cuts.len() + 1) as f64 * min_frac <= 1.0`); the forward pass
/// pushes narrow slabs up, the backward pass pushes them down, and
/// together they also restore strict monotonicity.
pub fn clamp_cuts(cuts: &mut [f64], min_frac: f64) {
    debug_assert!(
        (cuts.len() + 1) as f64 * min_frac <= 1.0,
        "min_frac {min_frac} infeasible for {} parts",
        cuts.len() + 1
    );
    let mut prev = 0.0;
    for c in cuts.iter_mut() {
        if *c < prev + min_frac {
            *c = prev + min_frac;
        }
        prev = *c;
    }
    let mut next = 1.0;
    for c in cuts.iter_mut().rev() {
        if *c > next - min_frac {
            *c = next - min_frac;
        }
        next = *c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_histogram_gives_uniform_cuts() {
        let hist = vec![10u64; 8];
        let cuts = cuts_from_histogram(&hist, 4);
        assert_eq!(cuts.len(), 3);
        for (j, c) in cuts.iter().enumerate() {
            assert!(
                (c - (j + 1) as f64 / 4.0).abs() < 1e-12,
                "cut {j} = {c}, expected {}",
                (j + 1) as f64 / 4.0
            );
        }
    }

    #[test]
    fn empty_histogram_falls_back_to_uniform() {
        let cuts = cuts_from_histogram(&[0u64; 16], 4);
        assert_eq!(cuts, vec![0.25, 0.5, 0.75]);
        assert!(cuts_from_histogram(&[0u64; 16], 1).is_empty());
    }

    #[test]
    fn skewed_histogram_shifts_cuts_toward_density() {
        // All weight in the first quarter of the box: the median cut of
        // a 2-way split must land inside that quarter.
        let mut hist = vec![0u64; 16];
        for h in hist.iter_mut().take(4) {
            *h = 100;
        }
        let cuts = cuts_from_histogram(&hist, 2);
        assert_eq!(cuts.len(), 1);
        assert!((cuts[0] - 0.125).abs() < 1e-12, "median at {}", cuts[0]);
    }

    #[test]
    fn interpolation_splits_within_a_bin() {
        // One hot bin: quartile cuts of a 4-way split all interpolate
        // inside it.
        let mut hist = vec![0u64; 10];
        hist[5] = 1000;
        let cuts = cuts_from_histogram(&hist, 4);
        for (j, c) in cuts.iter().enumerate() {
            let expect = 0.5 + 0.1 * (j + 1) as f64 / 4.0;
            assert!((c - expect).abs() < 1e-12, "cut {j} = {c} vs {expect}");
        }
    }

    #[test]
    fn cuts_equalize_the_weight_exactly_per_part() {
        // Piecewise-constant density: the weight left of each cut is
        // exactly j/nparts of the total under linear interpolation.
        let hist = vec![5u64, 1, 1, 9, 4, 0, 3, 7];
        let total: u64 = hist.iter().sum();
        let nbins = hist.len() as f64;
        let cuts = cuts_from_histogram(&hist, 5);
        for (j, &c) in cuts.iter().enumerate() {
            let mut left = 0.0;
            for (b, &h) in hist.iter().enumerate() {
                let b_lo = b as f64 / nbins;
                let b_hi = (b + 1) as f64 / nbins;
                let overlap = ((c - b_lo) / (b_hi - b_lo)).clamp(0.0, 1.0);
                left += h as f64 * overlap;
            }
            let want = total as f64 * (j + 1) as f64 / 5.0;
            assert!((left - want).abs() < 1e-9, "cut {j}: {left} vs {want}");
        }
    }

    #[test]
    fn clamp_enforces_min_width_and_monotonicity() {
        let mut cuts = vec![0.05, 0.051, 0.052];
        clamp_cuts(&mut cuts, 0.1);
        assert_eq!(cuts, vec![0.1, 0.2, 0.30000000000000004]);
        // Pushed against the top face: backward pass pulls them down.
        let mut cuts = vec![0.97, 0.98, 0.99];
        clamp_cuts(&mut cuts, 0.1);
        for (i, c) in cuts.iter().enumerate() {
            assert!((c - (0.7 + 0.1 * i as f64)).abs() < 1e-12);
        }
        // A non-monotone input comes out strictly increasing.
        let mut cuts = vec![0.5, 0.5, 0.4];
        clamp_cuts(&mut cuts, 0.05);
        assert!(cuts.windows(2).all(|w| w[1] - w[0] >= 0.05 - 1e-15));
        assert!(cuts[0] >= 0.05 - 1e-15 && cuts[2] <= 0.95 + 1e-15);
    }

    #[test]
    fn census_imbalance_is_max_over_mean() {
        assert_eq!(census_imbalance(&[10, 10, 10, 10]), 1.0);
        assert_eq!(census_imbalance(&[20, 10, 5, 5]), 2.0);
        assert_eq!(census_imbalance(&[]), 1.0);
        assert_eq!(census_imbalance(&[0, 0]), 1.0);
    }

    #[test]
    fn weight_ticks_modes() {
        assert_eq!(weight_ticks(BalanceWeight::AtomCount, 123.0, 7), 1);
        // 2e-6 s over 1000 atoms = 2 ns/atom.
        assert_eq!(weight_ticks(BalanceWeight::PairTime, 2e-6, 1000), 2);
        // Floored at 1 tick so idle ranks still count atoms.
        assert_eq!(weight_ticks(BalanceWeight::PairTime, 0.0, 1000), 1);
        assert_eq!(weight_ticks(BalanceWeight::PairTime, 1.0, 0), 1_000_000_000);
    }
}
