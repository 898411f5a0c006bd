//! Brick domain decomposition for the simulated-MPI rank layer.
//!
//! LAMMPS' scalability rests on a spatial decomposition: each MPI rank
//! owns a brick of the box, migrates atoms that cross brick boundaries,
//! and exchanges halo (ghost) copies with neighbors every step. Real
//! MPI at 8192 nodes is a hardware gate in this environment, so the
//! repo provides the *functional* substitute (DESIGN.md §2): ranks run
//! as OS threads and exchange typed messages over channels.
//!
//! This module holds the geometry side — [`BrickDecomp`] factors a rank
//! count into a near-cubic grid and maps positions to owning ranks. The
//! communication layer built on it is
//! [`crate::comm::brick::BrickComm`]; the unified driver is
//! [`crate::driver::RunSpec`]. (The free-function LJ drivers that used
//! to live here were deprecated in the Comm-API redesign and are gone;
//! all callers go through `RunSpec::run` with a
//! [`crate::comm::CommSpec`] now.)

use crate::domain::Domain;

/// A 3-D brick decomposition of a periodic box.
///
/// By default the grid is uniform: rank `ix` along a dimension owns the
/// fractional slab `[ix/p, (ix+1)/p)`. The load balancer
/// ([`crate::comm::balance`]) can install non-uniform cut fractions via
/// [`BrickDecomp::set_cuts`]; `cuts == None` keeps the original uniform
/// arithmetic bit-for-bit (committed baselines depend on it).
#[derive(Debug, Clone)]
pub struct BrickDecomp {
    pub grid: [usize; 3],
    pub global: Domain,
    /// Non-uniform cut fractions per dimension. `cuts[k]` holds the
    /// `grid[k] - 1` *interior* cut planes as fractions in `(0, 1)`,
    /// strictly increasing. `None` = uniform grid (fast path).
    cuts: Option<[Vec<f64>; 3]>,
}

impl BrickDecomp {
    /// Factor `nranks` into a near-cubic grid (largest factors last, as
    /// LAMMPS' `procs_grid` does for a cubic box).
    pub fn new(global: Domain, nranks: usize) -> Self {
        assert!(nranks > 0);
        let mut best = [1, 1, nranks];
        let mut best_score = f64::INFINITY;
        let mut best_sumsq = usize::MAX;
        for px in 1..=nranks {
            if !nranks.is_multiple_of(px) {
                continue;
            }
            let rem = nranks / px;
            for py in 1..=rem {
                if !rem.is_multiple_of(py) {
                    continue;
                }
                let pz = rem / py;
                let l = global.lengths();
                let dims = [l[0] / px as f64, l[1] / py as f64, l[2] / pz as f64];
                // Score: surface-to-volume of a sub-brick (lower = better).
                let s = 2.0 * (dims[0] * dims[1] + dims[1] * dims[2] + dims[0] * dims[2])
                    / (dims[0] * dims[1] * dims[2]);
                // Equal-surface factorizations exist whenever the box
                // aspect matches a permutation of the grid (e.g. a
                // 4x6x8 box at P=8 scores [1,2,4] and [2,2,2] the
                // same); break ties toward the most balanced grid —
                // more split dimensions give the load balancer more
                // cut planes to move.
                let sumsq = px * px + py * py + pz * pz;
                if s < best_score || (s == best_score && sumsq < best_sumsq) {
                    best_score = s;
                    best_sumsq = sumsq;
                    best = [px, py, pz];
                }
            }
        }
        BrickDecomp {
            grid: best,
            global,
            cuts: None,
        }
    }

    pub fn nranks(&self) -> usize {
        self.grid.iter().product()
    }

    /// Install non-uniform interior cut fractions (`cuts[k].len() ==
    /// grid[k] - 1`, each in `(0, 1)`, strictly increasing). Pass
    /// `None` to restore the uniform grid.
    pub fn set_cuts(&mut self, cuts: Option<[Vec<f64>; 3]>) {
        if let Some(c) = &cuts {
            for (k, ck) in c.iter().enumerate() {
                assert_eq!(
                    ck.len(),
                    self.grid[k] - 1,
                    "dimension {k}: expected {} interior cuts",
                    self.grid[k] - 1
                );
                let mut prev = 0.0;
                for &f in ck {
                    assert!(f > prev && f < 1.0, "cut fractions must increase in (0,1)");
                    prev = f;
                }
            }
        }
        self.cuts = cuts;
    }

    /// The interior cut fractions currently installed, if any.
    pub fn cuts(&self) -> Option<&[Vec<f64>; 3]> {
        self.cuts.as_ref()
    }

    /// Lower/upper cut fraction of slab `i` along dimension `k`.
    #[inline]
    fn frac(&self, k: usize, i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        if i == self.grid[k] {
            return 1.0;
        }
        match &self.cuts {
            Some(c) => c[k][i - 1],
            None => i as f64 / self.grid[k] as f64,
        }
    }

    /// The brick owned by `rank` (x-major ordering).
    pub fn subdomain(&self, rank: usize) -> Domain {
        let [px, py, pz] = self.grid;
        let ix = rank / (py * pz);
        let iy = (rank / pz) % py;
        let iz = rank % pz;
        let l = self.global.lengths();
        if self.cuts.is_none() {
            // Uniform fast path: the exact arithmetic the pre-balancer
            // code used (sub-boundary bits feed committed baselines).
            let lo = [
                self.global.lo[0] + l[0] * ix as f64 / px as f64,
                self.global.lo[1] + l[1] * iy as f64 / py as f64,
                self.global.lo[2] + l[2] * iz as f64 / pz as f64,
            ];
            let hi = [
                self.global.lo[0] + l[0] * (ix + 1) as f64 / px as f64,
                self.global.lo[1] + l[1] * (iy + 1) as f64 / py as f64,
                self.global.lo[2] + l[2] * (iz + 1) as f64 / pz as f64,
            ];
            return Domain::new(lo, hi);
        }
        let c = [ix, iy, iz];
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for k in 0..3 {
            lo[k] = self.global.lo[k] + l[k] * self.frac(k, c[k]);
            hi[k] = self.global.lo[k] + l[k] * self.frac(k, c[k] + 1);
        }
        Domain::new(lo, hi)
    }

    /// Which rank owns a (wrapped) position.
    pub fn rank_of(&self, x: &[f64; 3]) -> usize {
        let [px, py, pz] = self.grid;
        let l = self.global.lengths();
        if let Some(cuts) = &self.cuts {
            let idx = |k: usize, p: usize| -> usize {
                // Slab i owns [boundary(i), boundary(i+1)); comparing
                // against the same boundary *bits* as `subdomain` keeps
                // ownership and geometry consistent.
                let i = cuts[k].partition_point(|&f| self.global.lo[k] + l[k] * f <= x[k]);
                i.min(p - 1)
            };
            return (idx(0, px) * py + idx(1, py)) * pz + idx(2, pz);
        }
        let idx = |k: usize, p: usize| -> usize {
            let t = ((x[k] - self.global.lo[k]) / l[k] * p as f64) as isize;
            t.clamp(0, p as isize - 1) as usize
        };
        (idx(0, px) * py + idx(1, py)) * pz + idx(2, pz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{Lattice, LatticeKind};

    #[test]
    fn grid_factorization_is_exact_and_near_cubic() {
        let d = Domain::cubic(10.0);
        for n in [1usize, 2, 3, 4, 6, 8, 12, 16] {
            let b = BrickDecomp::new(d, n);
            assert_eq!(b.nranks(), n);
        }
        let b8 = BrickDecomp::new(d, 8);
        assert_eq!(b8.grid, [2, 2, 2]);
    }

    #[test]
    fn subdomains_tile_the_box() {
        let d = Domain::new([0.0; 3], [4.0, 6.0, 8.0]);
        let b = BrickDecomp::new(d, 6);
        let vol_total: f64 = (0..6).map(|r| b.subdomain(r).volume()).sum();
        assert!((vol_total - d.volume()).abs() < 1e-9);
        // Every point maps to the brick that contains it.
        for r in 0..6 {
            let s = b.subdomain(r);
            let mid = [
                0.5 * (s.lo[0] + s.hi[0]),
                0.5 * (s.lo[1] + s.hi[1]),
                0.5 * (s.lo[2] + s.hi[2]),
            ];
            assert_eq!(b.rank_of(&mid), r);
        }
    }

    #[test]
    fn non_uniform_cuts_tile_and_agree_with_rank_of() {
        let d = Domain::new([-1.0; 3], [3.0, 5.0, 7.0]);
        let mut b = BrickDecomp::new(d, 8);
        assert_eq!(b.grid, [2, 2, 2]);
        b.set_cuts(Some([vec![0.3], vec![0.7], vec![0.5]]));
        // Sub-domains still tile the box exactly.
        let vol_total: f64 = (0..8).map(|r| b.subdomain(r).volume()).sum();
        assert!((vol_total - d.volume()).abs() < 1e-9);
        // Interior faces of adjacent bricks share identical bits.
        let s0 = b.subdomain(b.rank_of(&[-0.5, 0.0, 0.0]));
        let s1 = b.subdomain(b.rank_of(&[2.5, 0.0, 0.0]));
        assert_eq!(s0.hi[0].to_bits(), s1.lo[0].to_bits());
        // Every sub-domain midpoint maps back to its rank, and points on
        // a cut plane belong to the upper slab.
        for r in 0..8 {
            let s = b.subdomain(r);
            let mid = [
                0.5 * (s.lo[0] + s.hi[0]),
                0.5 * (s.lo[1] + s.hi[1]),
                0.5 * (s.lo[2] + s.hi[2]),
            ];
            assert_eq!(b.rank_of(&mid), r);
            assert_eq!(b.rank_of(&[s.lo[0], mid[1], mid[2]]), r);
        }
        // Clearing the cuts restores the uniform geometry bit-for-bit.
        let uniform = BrickDecomp::new(d, 8);
        b.set_cuts(None);
        for r in 0..8 {
            let (a, u) = (b.subdomain(r), uniform.subdomain(r));
            assert_eq!(a.lo, u.lo);
            assert_eq!(a.hi, u.hi);
        }
    }

    fn perturbed_fcc(n: usize) -> (Vec<[f64; 3]>, Domain) {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let positions: Vec<[f64; 3]> = lat
            .positions(n, n, n)
            .iter()
            .enumerate()
            .map(|(i, p)| {
                [
                    p[0] + 0.05 * ((i * 7 % 13) as f64 / 13.0 - 0.5),
                    p[1] + 0.05 * ((i * 11 % 17) as f64 / 17.0 - 0.5),
                    p[2] + 0.05 * ((i * 5 % 19) as f64 / 19.0 - 0.5),
                ]
            })
            .collect();
        (positions, lat.domain(n, n, n))
    }

    /// Drive the unified `RunSpec` driver for a [`TwoBody`] potential
    /// on the perturbed lattice (the workload the old deprecated
    /// free-function drivers covered before they were removed).
    fn run_two_body<P>(
        positions: &[[f64; 3]],
        global: Domain,
        pot: P,
        nranks: usize,
        nsteps: u64,
        dt: f64,
    ) -> crate::driver::MultiRankRun
    where
        P: crate::pair::TwoBody + Clone + 'static,
    {
        use crate::comm::CommSpec;
        use crate::driver::RunSpec;
        use crate::pair::{PairKokkos, PairKokkosOptions};
        use crate::sim::Simulation;
        use lkk_kokkos::Space;
        let atoms = crate::atom::AtomData::from_positions(positions);
        let spec = RunSpec::new(&atoms, global, nsteps).comm(CommSpec::Brick {
            ranks: nranks,
            balance: None,
        });
        let run = spec.run(move |_, system| {
            // Half list + newton on on every rank: the cross-rank pair
            // convention the brick comm layer is built for.
            let pair = PairKokkos::with_options(
                pot.clone(),
                &Space::Serial,
                PairKokkosOptions {
                    force_half: Some(true),
                    ..Default::default()
                },
            );
            let mut sim = Simulation::new(system, Box::new(pair));
            sim.dt = dt;
            sim
        });
        run.expect("fault-free rank-parallel run failed")
    }

    #[test]
    fn decomposed_matches_single_rank_across_rank_counts() {
        use crate::pair::lj::LjCut;
        let (positions, global) = perturbed_fcc(4);
        let lj = LjCut::single_type(1.0, 1.0, 2.5);
        let reference = run_two_body(&positions, global, lj.clone(), 1, 10, 0.002);
        for nranks in [2usize, 4, 8] {
            let run = run_two_body(&positions, global, lj.clone(), nranks, 10, 0.002);
            assert_eq!(
                run.states.len(),
                reference.states.len(),
                "lost atoms at P={nranks}"
            );
            assert_eq!(run.owned_atoms.len(), nranks);
            assert_eq!(run.owned_atoms.iter().sum::<usize>(), positions.len());
            assert!(run.atom_imbalance() >= 1.0);
            for (a, b) in run.states.iter().zip(&reference.states) {
                assert_eq!(a.tag, b.tag);
                for k in 0..3 {
                    assert!(
                        (a.x[k] - b.x[k]).abs() < 1e-12,
                        "P={nranks} tag={} x[{k}]: {} vs {}",
                        a.tag,
                        a.x[k],
                        b.x[k]
                    );
                }
            }
            assert!(
                (run.e_pair - reference.e_pair).abs() < 1e-12 * reference.e_pair.abs().max(1.0),
                "P={nranks} e_pair {} vs {}",
                run.e_pair,
                reference.e_pair
            );
        }
    }

    #[test]
    fn generic_driver_works_with_morse() {
        use crate::pair::morse::Morse;
        let (positions, global) = perturbed_fcc(4);
        let pot = Morse::new(1.0, 2.0, 1.2, 2.5);
        let r1 = run_two_body(&positions, global, pot, 1, 4, 0.001);
        let r4 = run_two_body(&positions, global, pot, 4, 4, 0.001);
        for (a, b) in r1.states.iter().zip(&r4.states) {
            for k in 0..3 {
                assert!((a.x[k] - b.x[k]).abs() < 1e-12);
            }
        }
        assert!((r1.e_pair - r4.e_pair).abs() < 1e-12 * r1.e_pair.abs().max(1.0));
    }
}
