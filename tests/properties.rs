//! Property-based tests (proptest) for cross-cutting invariants.

use lammps_kk::core::atom::AtomData;
use lammps_kk::core::comm::build_ghosts;
use lammps_kk::core::domain::Domain;
use lammps_kk::core::neighbor::{NeighborList, NeighborSettings};
use lammps_kk::gpusim::{analytic_hit_rate, CacheConfig, CacheSim, GpuArch, KernelStats};
use lammps_kk::kokkos::{Layout, ScatterMode, ScatterView, Space, View2};
use lammps_kk::snap::cg::clebsch_gordan;
use lammps_kk::snap::context::SnapContext;
use lammps_kk::snap::hyper::HyperParams;
use proptest::prelude::*;

/// Rz(a) · Ry(b) · Rx(g) applied to `v`.
fn rotate(v: [f64; 3], euler: (f64, f64, f64)) -> [f64; 3] {
    let (a, b, g) = euler;
    let (sa, ca) = a.sin_cos();
    let (sb, cb) = b.sin_cos();
    let (sg, cg) = g.sin_cos();
    let rx = [v[0], cg * v[1] - sg * v[2], sg * v[1] + cg * v[2]];
    let ry = [cb * rx[0] + sb * rx[2], rx[1], -sb * rx[0] + cb * rx[2]];
    [ca * ry[0] - sa * ry[1], sa * ry[0] + ca * ry[1], ry[2]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wrapping any point into any box is idempotent and lands inside.
    #[test]
    fn pbc_wrap_idempotent(
        x in prop::array::uniform3(-1e3f64..1e3),
        lo in prop::array::uniform3(-10f64..10.0),
        ext in prop::array::uniform3(0.5f64..50.0),
    ) {
        let hi = [lo[0] + ext[0], lo[1] + ext[1], lo[2] + ext[2]];
        let d = Domain::new(lo, hi);
        let mut p = x;
        d.wrap(&mut p);
        prop_assert!(d.contains(&p));
        let once = p;
        d.wrap(&mut p);
        prop_assert_eq!(once, p);
    }

    /// Minimum-image displacement components never exceed half a box.
    #[test]
    fn min_image_within_half_box(
        a in prop::array::uniform3(0f64..20.0),
        b in prop::array::uniform3(0f64..20.0),
        l in 1.0f64..20.0,
    ) {
        let d = Domain::cubic(l);
        let mut pa = a;
        let mut pb = b;
        d.wrap(&mut pa);
        d.wrap(&mut pb);
        let disp = d.min_image(&pa, &pb);
        for dk in disp {
            prop_assert!(dk.abs() <= 0.5 * l + 1e-9);
        }
    }

    /// View layout round-trip: Right→Left→Right copy preserves content.
    #[test]
    fn view_layout_round_trip(
        rows in 1usize..20,
        cols in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut right = View2::<f64>::new("r", [rows, cols]);
        let mut s = seed;
        for i in 0..rows {
            for j in 0..cols {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                right.set([i, j], (s >> 11) as f64);
            }
        }
        let mut left = View2::<f64>::with_layout("l", [rows, cols], Layout::Left);
        left.copy_from(&right);
        let mut back = View2::<f64>::new("b", [rows, cols]);
        back.copy_from(&left);
        prop_assert_eq!(right.as_slice(), back.as_slice());
    }

    /// All ScatterView modes yield identical results for any add set.
    #[test]
    fn scatter_modes_equivalent(adds in prop::collection::vec((0usize..32, 0usize..3, -5f64..5.0), 1..200)) {
        let mut results = Vec::new();
        for mode in [ScatterMode::Atomic, ScatterMode::Duplicated, ScatterMode::Sequential] {
            let mut sv = ScatterView::new(32, 3, mode);
            for &(i, c, v) in &adds {
                sv.add(i, c, v);
            }
            let mut out = vec![0.0; 96];
            sv.contribute_into(&mut out);
            results.push(out);
        }
        for w in results.windows(2) {
            for (a, b) in w[0].iter().zip(&w[1]) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    /// Full neighbor lists are symmetric over local pairs and count
    /// exactly twice the half-list pairs, for random dilute gases.
    #[test]
    fn neighbor_list_full_half_duality(seed in 0u64..500) {
        let l = 12.0;
        let n = 40usize;
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7);
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let positions: Vec<[f64; 3]> = (0..n).map(|_| [rnd() * l, rnd() * l, rnd() * l]).collect();
        let domain = Domain::cubic(l);
        let settings_half = NeighborSettings::new(2.5, 0.3, true);
        let settings_full = NeighborSettings::new(2.5, 0.3, false);
        let mut atoms = AtomData::from_positions(&positions);
        build_ghosts(&mut atoms, &domain, settings_half.cutneigh());
        let half = NeighborList::build(&atoms, &domain, &settings_half, &Space::Serial);
        let full = NeighborList::build(&atoms, &domain, &settings_full, &Space::Serial);
        prop_assert_eq!(full.total_pairs, 2 * half.total_pairs);
    }

    /// Clebsch-Gordan symmetry: C^{jm}_{j1 m1 j2 m2} =
    /// (−1)^{j1+j2−j} C^{jm}_{j2 m2 j1 m1} (doubled integers).
    #[test]
    fn cg_exchange_symmetry(j1 in 0i64..5, j2 in 0i64..5, j in 0i64..8) {
        let (j1, j2, j) = (2 * j1, 2 * j2, 2 * j); // integer spins
        for m1 in (-j1..=j1).step_by(2) {
            for m2 in (-j2..=j2).step_by(2) {
                let a = clebsch_gordan(j1, m1, j2, m2, j, m1 + m2);
                let b = clebsch_gordan(j2, m2, j1, m1, j, m1 + m2);
                let sign = if ((j1 + j2 - j) / 2) % 2 == 0 { 1.0 } else { -1.0 };
                prop_assert!((a - sign * b).abs() < 1e-12);
            }
        }
    }

    /// Cache simulator hit rate is within [0,1] and the analytic model
    /// is monotone in capacity.
    #[test]
    fn cache_model_sane(ws in 1f64..1e6, cap_kb in 1u64..512) {
        let h1 = analytic_hit_rate(ws, (cap_kb * 1024) as f64);
        let h2 = analytic_hit_rate(ws, (cap_kb * 2048) as f64);
        prop_assert!((0.0..=1.0).contains(&h1));
        prop_assert!(h2 >= h1 - 1e-12);
        let mut sim = CacheSim::new(cap_kb * 1024, 8, 64);
        for i in 0..200u64 {
            sim.access(i * 64 % (ws as u64 + 64));
        }
        prop_assert!(sim.hit_rate() >= 0.0 && sim.hit_rate() <= 1.0);
    }

    /// Kernel cost model: time is monotone non-decreasing in flops,
    /// bytes and atomics, on every architecture.
    #[test]
    fn cost_model_monotonic(
        flops in 1e6f64..1e12,
        bytes in 1e6f64..1e11,
        atomics in 0f64..1e9,
    ) {
        for arch in GpuArch::table1() {
            let cfg = CacheConfig::from_carveout(&arch, 0.5);
            let mut k = KernelStats::new("k");
            k.work_items = 1e7;
            k.flops = flops;
            k.dram_bytes = bytes;
            k.atomic_f64_ops = atomics;
            let t0 = k.time_on(&arch, &cfg).seconds;
            let mut k2 = k.clone();
            k2.flops *= 2.0;
            k2.dram_bytes *= 2.0;
            k2.atomic_f64_ops *= 2.0;
            let t1 = k2.time_on(&arch, &cfg).seconds;
            prop_assert!(t1 >= t0);
        }
    }

    /// SNAP bispectrum components are invariant under arbitrary
    /// rotations of the neighborhood, for random neighbor sets, random
    /// Euler angles, and every supported truncation order.
    #[test]
    fn snap_bispectrum_rotation_invariance(
        seed in 0u64..200,
        a in 0.0f64..std::f64::consts::TAU,
        b in 0.0f64..std::f64::consts::PI,
        g in 0.0f64..std::f64::consts::TAU,
        twojmax in prop::sample::select(vec![2usize, 4, 6]),
    ) {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let nneigh = 3 + (seed % 5) as usize;
        let neigh: Vec<[f64; 3]> = (0..nneigh)
            .map(|_| {
                [
                    3.0 * (rnd() - 0.5),
                    3.0 * (rnd() - 0.5),
                    3.0 * (rnd() - 0.5),
                ]
            })
            // Keep neighbors off the origin (undefined direction).
            .map(|v| {
                let r2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2];
                if r2 < 0.25 {
                    [v[0] + 1.0, v[1], v[2]]
                } else {
                    v
                }
            })
            .collect();
        let ctx = SnapContext::new(
            twojmax,
            HyperParams::default(),
            SnapContext::synthetic_beta(twojmax, 7),
        );
        let mut scratch = ctx.alloc_scratch();
        ctx.compute_ui(&neigh, &mut scratch, 1);
        let b0 = ctx.compute_bi(&scratch);
        let rotated: Vec<[f64; 3]> = neigh.iter().map(|&v| rotate(v, (a, b, g))).collect();
        ctx.compute_ui(&rotated, &mut scratch, 1);
        let b1 = ctx.compute_bi(&scratch);
        for (x, y) in b0.iter().zip(&b1) {
            prop_assert!((x - y).abs() < 1e-8 * x.abs().max(1.0), "{x} vs {y}");
        }
    }

    /// ComputeUi neighbor batching is bit-for-bit irrelevant to the
    /// accumulated U for any batch size.
    #[test]
    fn snap_ui_batching_invariance(seed in 0u64..100, batch in 1usize..9) {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let neigh: Vec<[f64; 3]> = (0..7)
            .map(|_| [1.0 + 2.0 * rnd(), 2.0 * rnd() - 1.0, 2.0 * rnd() - 1.0])
            .collect();
        let ctx = SnapContext::new(4, HyperParams::default(), SnapContext::synthetic_beta(4, 3));
        let mut s1 = ctx.alloc_scratch();
        let mut s2 = ctx.alloc_scratch();
        ctx.compute_ui(&neigh, &mut s1, 1);
        ctx.compute_ui(&neigh, &mut s2, batch);
        for (a, b) in s1.utot_r.iter().zip(&s2.utot_r) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }
}
