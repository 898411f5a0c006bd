//! Three-body valence-angle terms with count/fill pre-processing.
//!
//! §4.2.1 (applied to triplets): a divergent but cheap pre-processing
//! pass enumerates the bonded pairs `(j, i, k)` around each center `i`
//! whose bond orders can contribute, compresses them into a dense
//! triplet table (all triplets of an atom contiguous), and the
//! expensive energy/force kernel then runs fully convergent over the
//! table.
//!
//! Reduced angular form (DESIGN.md §2):
//!
//! ```text
//! E = k_angle · fb(BO_ij) · fb(BO_ik) · (cos θ − cos θ0)²
//! fb(BO) = (1 − e^{−p(BO − bo_lo)})²  for BO > bo_lo, else 0,
//! ```
//!
//! with `fb` C¹ at its support edge so forces stay continuous as bonds
//! form and break.

use crate::bond_order::BondState;
use crate::ensure_len;
use crate::params::ReaxParams;
use lkk_kokkos::{parts, AtomicF64, Space};

/// A compressed triplet: center atom and two bond-slot positions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Triplet {
    pub i: u32,
    pub b1: u32,
    pub b2: u32,
}

/// Bond-order coupling `fb` and derivative.
#[inline]
pub fn fb(bo: f64, bo_lo: f64, p: f64) -> (f64, f64) {
    if bo <= bo_lo {
        return (0.0, 0.0);
    }
    let e = (-p * (bo - bo_lo)).exp();
    let one = 1.0 - e;
    (one * one, 2.0 * one * p * e)
}

/// The support edge of the angular coupling.
pub fn angle_bo_lo(params: &ReaxParams) -> f64 {
    3.0 * params.bo_cut
}

/// The compressed triplet table with its per-atom counts and offsets:
/// one pooled workspace, refilled in place by [`TripletTable::build`],
/// grown never shrunk.
#[derive(Debug, Default)]
pub struct TripletTable {
    /// All triplets of an atom are contiguous.
    pub triplets: Vec<Triplet>,
    counts: Vec<usize>,
    offsets: Vec<usize>,
}

impl TripletTable {
    /// Pre-processing: count + fill the compressed triplet table
    /// (`parallel_scan` between the two passes, exactly the §4.2.2
    /// build pattern). Returns how many buffers had to grow (0 in
    /// steady state).
    pub fn build(&mut self, state: &BondState, params: &ReaxParams, space: &Space) -> u64 {
        let t = &state.table;
        let nlocal = t.nlocal;
        let bo_lo = angle_bo_lo(params);
        let mut grown = ensure_len(&mut self.counts, nlocal);
        grown += ensure_len(&mut self.offsets, nlocal + 1);
        // Count pass.
        let tallies = parts::elements(&mut self.counts);
        space.parallel_for_parts("AngleCount", nlocal, tallies, |i, c| {
            let nb = t.count[i] as usize;
            *c = 0;
            for b1 in 0..nb {
                if state.bo[t.slot(i, b1)] <= bo_lo {
                    continue;
                }
                for b2 in (b1 + 1)..nb {
                    if state.bo[t.slot(i, b2)] > bo_lo {
                        *c += 1;
                    }
                }
            }
        });
        let total = space.parallel_scan("AngleScan", &self.counts, &mut self.offsets);
        // Fill pass (each atom writes its own contiguous range).
        grown += ensure_len(&mut self.triplets, total);
        let ranges = parts::csr(&mut self.triplets, &self.offsets);
        space.parallel_for_parts("AngleFill", nlocal, ranges, |i, mine| {
            let nb = t.count[i] as usize;
            let mut at = 0;
            for b1 in 0..nb {
                if state.bo[t.slot(i, b1)] <= bo_lo {
                    continue;
                }
                for b2 in (b1 + 1)..nb {
                    if state.bo[t.slot(i, b2)] > bo_lo {
                        mine[at] = Triplet {
                            i: i as u32,
                            b1: b1 as u32,
                            b2: b2 as u32,
                        };
                        at += 1;
                    }
                }
            }
        });
        grown
    }
}

/// Convergent compute kernel: energy, geometric forces, and `∂E/∂BO`
/// coefficients (atomically accumulated into `state.c_bo`). Forces are
/// added to owner rows of `forces`; returns `(energy, virial)`.
pub fn compute_angles(
    triplets: &[Triplet],
    state: &mut BondState,
    params: &ReaxParams,
    forces: &mut [[f64; 3]],
    space: &Space,
) -> (f64, f64) {
    let bo_lo = angle_bo_lo(params);
    // Slots and atoms are shared between triplets: atomic cells.
    let c_bo = AtomicF64::from_mut_slice(&mut state.c_bo);
    let f = AtomicF64::from_mut_slice(forces.as_flattened_mut());
    let t = &state.table;
    let bo = &state.bo;
    space.parallel_reduce(
        "AngleCompute",
        triplets.len(),
        (0.0f64, 0.0f64),
        |q| {
            let tr = triplets[q];
            let i = tr.i as usize;
            let s1 = t.slot(i, tr.b1 as usize);
            let s2 = t.slot(i, tr.b2 as usize);
            let (fb1, dfb1) = fb(bo[s1], bo_lo, params.p_ang_bo);
            let (fb2, dfb2) = fb(bo[s2], bo_lo, params.p_ang_bo);
            let d1 = [t.dx[s1], t.dy[s1], t.dz[s1]];
            let d2 = [t.dx[s2], t.dy[s2], t.dz[s2]];
            let (r1, r2) = (t.r[s1], t.r[s2]);
            let dot = d1[0] * d2[0] + d1[1] * d2[1] + d1[2] * d2[2];
            let c = dot / (r1 * r2);
            let dc = c - params.cos_theta0;
            let e = params.k_angle * fb1 * fb2 * dc * dc;
            // ∂E/∂BO into the shared coefficient array.
            c_bo[s1].fetch_add(params.k_angle * dfb1 * fb2 * dc * dc);
            c_bo[s2].fetch_add(params.k_angle * fb1 * dfb2 * dc * dc);
            // Geometric force: dE/dcosθ with
            // ∂cosθ/∂d1 = d2/(r1r2) − cosθ·d1/r1².
            let dedc = params.k_angle * fb1 * fb2 * 2.0 * dc;
            let inv12 = 1.0 / (r1 * r2);
            let mut g1 = [0.0f64; 3];
            let mut g2 = [0.0f64; 3];
            for k in 0..3 {
                g1[k] = d2[k] * inv12 - c * d1[k] / (r1 * r1);
                g2[k] = d1[k] * inv12 - c * d2[k] / (r2 * r2);
            }
            let o1 = t.owner[s1] as usize;
            let o2 = t.owner[s2] as usize;
            let mut w = 0.0;
            for k in 0..3 {
                let f1 = -dedc * g1[k];
                let f2 = -dedc * g2[k];
                f[3 * o1 + k].fetch_add(f1);
                f[3 * o2 + k].fetch_add(f2);
                f[3 * i + k].fetch_add(-f1 - f2);
                w += d1[k] * f1 + d2[k] * f2;
            }
            (e, w)
        },
        |a, b| (a.0 + b.0, a.1 + b.1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bond_order::BondState;
    use lkk_core::atom::AtomData;
    use lkk_core::comm::build_ghosts;
    use lkk_core::domain::Domain;
    use lkk_core::neighbor::{NeighborList, NeighborSettings};
    use lkk_kokkos::Space;

    #[test]
    fn water_like_trimer_has_one_angle() {
        let params = crate::params::ReaxParams::single_element();
        let mut atoms = AtomData::from_positions(&[
            [8.0, 8.0, 8.0], // center
            [9.4, 8.2, 8.0], // bonded
            [7.3, 9.2, 8.1], // bonded
        ]);
        let domain = Domain::cubic(18.0);
        atoms.wrap_positions(&domain);
        let settings = NeighborSettings::new(params.r_nonb, 0.3, false);
        let ghosts = build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let list = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        let mut state = BondState::default();
        state.build(&atoms, &list, &ghosts, &params, &Space::Serial);
        let mut table = TripletTable::default();
        table.build(&state, &params, &Space::Serial);
        let triplets = &table.triplets;
        assert_eq!(triplets.len(), 1);
        assert_eq!(triplets[0].i, 0, "angle must be centered on atom 0");
        // Energy positive for a bent angle away from cos_theta0.
        let mut forces = vec![[0.0; 3]; 3];
        let (e, _) = compute_angles(triplets, &mut state, &params, &mut forces, &Space::Serial);
        assert!(e >= 0.0);
    }

    #[test]
    fn fb_is_c1_at_support_edge() {
        let (v, d) = fb(0.03, 0.03, 4.0);
        assert_eq!((v, d), (0.0, 0.0));
        let (v2, d2) = fb(0.03 + 1e-9, 0.03, 4.0);
        assert!(v2 < 1e-15);
        assert!(d2 < 1e-7);
        // FD check inside the support.
        for &b in &[0.1f64, 0.5, 0.9] {
            let h = 1e-7;
            let fd = (fb(b + h, 0.03, 4.0).0 - fb(b - h, 0.03, 4.0).0) / (2.0 * h);
            assert!((fb(b, 0.03, 4.0).1 - fd).abs() < 1e-6);
        }
    }
}
