//! Bond tables, bond orders, and the `∂E/∂BO` force chains.
//!
//! The *bond order neighbor list* kernel of §4.2: a divergent
//! pre-processing pass scans the (much longer) non-bonded neighbor list
//! and compresses the pairs with `BO' > bo_cut` into a dense 2-D bond
//! table — 2-D rather than a flat offset-indexed 1-D view, which is the
//! Appendix-B refactor that removed 32-bit offset overflow ("replace
//! the flat 1-d Views with more natural 2-d neighbor tables. Here no
//! index exceeded a 32-bit integer").
//!
//! Bond-order model (reduced; DESIGN.md §2):
//!
//! ```text
//! BO'_ij = exp(pbo1 · (r/r0)^pbo2) · switch(r)
//! Δ'_i   = Σ_j BO'_ij − valence_i
//! BO_ij  = BO'_ij · f(Δ'_i + Δ'_j),   f = logistic over-coordination
//! Δ_i    = Σ_j BO_ij − valence_i
//! ```
//!
//! Energy terms produce `∂E/∂BO_ij` and `∂E/∂Δ_i` coefficients
//! (`Cdbo`/`CdDelta` in LAMMPS' ReaxFF); [`BondState::accumulate_forces`]
//! propagates them through the correction chain to atom forces.

use crate::ensure_len;
use crate::params::ReaxParams;
use lkk_core::atom::AtomData;
use lkk_core::comm::GhostMap;
use lkk_core::neighbor::{NeighborList, TOWARD_J};
use lkk_kokkos::parts::{elements, rows};
use lkk_kokkos::Space;

/// Over-coordination correction `f(s)` and derivative: a logistic that
/// is ≈1 for under-coordination and decays as `s = Δ'_i + Δ'_j` grows.
#[inline]
fn over_corr(s: f64, p: f64) -> (f64, f64) {
    // Centered so a perfectly coordinated pair (s ≈ 0) keeps ~92% of
    // its raw bond order.
    let shift = 1.0;
    let e = (p * (s - shift)).exp();
    let f = 1.0 / (1.0 + e);
    let df = -p * e * f * f;
    (f, df)
}

/// One atom's bonds, stored row-major `[nlocal × max_bonds]`.
/// Persistent: [`BondTable::build`] refills the same columns every step
/// and only the `count[i]` leading slots of a row are ever read, so
/// nothing is zero-filled between steps.
#[derive(Debug, Default)]
pub struct BondTable {
    pub nlocal: usize,
    pub max_bonds: usize,
    pub count: Vec<u32>,
    /// Neighbor row index in the atom arrays (possibly a ghost).
    pub partner: Vec<u32>,
    /// The partner's *owner* (local index; == partner for local atoms).
    pub owner: Vec<u32>,
    /// Displacement x_j − x_i and distance.
    pub dx: Vec<f64>,
    pub dy: Vec<f64>,
    pub dz: Vec<f64>,
    pub r: Vec<f64>,
    /// Uncorrected bond order and its radial derivative.
    pub bo_p: Vec<f64>,
    pub dbo_p: Vec<f64>,
}

impl BondTable {
    #[inline(always)]
    pub fn slot(&self, i: usize, b: usize) -> usize {
        i * self.max_bonds + b
    }

    /// Total bond slots in use.
    pub fn total_bonds(&self) -> u64 {
        self.count.iter().map(|&c| c as u64).sum()
    }

    /// Refill from a full neighbor list. Divergent pre-processing: most
    /// listed pairs fail the `r < r_bond` / `BO' > bo_cut` tests. Rows
    /// are at least 12 slots wide and widen (never narrow) when an atom
    /// has more bonds; returns how many columns had to grow (0 in steady
    /// state).
    pub fn build(
        &mut self,
        atoms: &AtomData,
        list: &NeighborList,
        ghosts: &GhostMap,
        params: &ReaxParams,
        space: &Space,
    ) -> u64 {
        assert!(!list.half, "ReaxFF bond table needs a full neighbor list");
        let nlocal = atoms.nlocal;
        let walk = list.within(atoms.x.h_view(), params.r_bond);
        let typ = atoms.typ.h_view();
        self.nlocal = nlocal;
        self.max_bonds = self.max_bonds.max(12);
        let mut grown = 0;
        loop {
            let w = self.max_bonds;
            grown += ensure_len(&mut self.count, nlocal);
            for v in [&mut self.partner, &mut self.owner] {
                grown += ensure_len(v, nlocal * w);
            }
            for v in [
                &mut self.dx,
                &mut self.dy,
                &mut self.dz,
                &mut self.r,
                &mut self.bo_p,
                &mut self.dbo_p,
            ] {
                grown += ensure_len(v, nlocal * w);
            }
            // Row-disjoint parallel fill: every work item owns its row of
            // each column and its count.
            let t = &mut *self;
            let columns = (
                (rows(&mut t.partner, w), rows(&mut t.owner, w)),
                (rows(&mut t.dx, w), rows(&mut t.dy, w), rows(&mut t.dz, w)),
                (
                    rows(&mut t.r, w),
                    rows(&mut t.bo_p, w),
                    rows(&mut t.dbo_p, w),
                ),
                elements(&mut t.count),
            );
            let needed = space.parallel_reduce_parts(
                "BondOrderBuild",
                nlocal,
                columns,
                0usize,
                |i, ((partner, owner), (dx, dy, dz), (rr, bo, dbo), stored)| {
                    let ti = typ.at([i]) as usize;
                    let mut count = 0usize;
                    walk.row::<TOWARD_J>(i, |j, d, rsq| {
                        let r = rsq.sqrt();
                        let tj = typ.at([j]) as usize;
                        // Store BO' − bo_cut (the standard ReaxFF shift)
                        // so bond quantities go to zero continuously as
                        // a pair enters or leaves the table.
                        let (bo_raw, dbo_p) = params.bond_order_prime(r, ti, tj);
                        let bo_p = bo_raw - params.bo_cut;
                        if bo_p <= 0.0 {
                            return;
                        }
                        if count < w {
                            let c = count;
                            partner[c] = j as u32;
                            owner[c] = if j < nlocal {
                                j as u32
                            } else {
                                ghosts.owner[j - nlocal] as u32
                            };
                            [dx[c], dy[c], dz[c]] = d;
                            (rr[c], bo[c], dbo[c]) = (r, bo_p, dbo_p);
                        }
                        count += 1;
                    });
                    *stored = count.min(w) as u32;
                    count
                },
                usize::max,
            );
            if needed <= w {
                return grown;
            }
            self.max_bonds = needed + 4;
        }
    }
}

/// Bond orders plus the reverse-mode coefficient buffers, around the
/// bond table they are indexed like. One pooled workspace: refilled in
/// place by [`BondState::build`], grown never shrunk.
#[derive(Debug, Default)]
pub struct BondState {
    pub table: BondTable,
    /// Uncorrected coordination deficit Δ'.
    pub delta_p: Vec<f64>,
    /// Corrected bond order per slot.
    pub bo: Vec<f64>,
    /// Correction factor f and f' per slot.
    pub f: Vec<f64>,
    pub df: Vec<f64>,
    /// Corrected coordination Δ.
    pub delta: Vec<f64>,
    /// ∂E/∂BO per slot (accumulated by energy terms).
    pub c_bo: Vec<f64>,
    /// ∂E/∂Δ per atom.
    pub c_delta: Vec<f64>,
    /// ∂E/∂Δ' per atom (scratch of [`BondState::accumulate_forces`]).
    c_dp: Vec<f64>,
}

impl BondState {
    /// Refill the bond table from the list, then compute Δ', the
    /// corrected BO and Δ, and zero the `∂E/∂BO`, `∂E/∂Δ` coefficients.
    /// Returns how many buffers had to grow (0 in steady state).
    pub fn build(
        &mut self,
        atoms: &AtomData,
        list: &NeighborList,
        ghosts: &GhostMap,
        params: &ReaxParams,
        space: &Space,
    ) -> u64 {
        let mut grown = self.table.build(atoms, list, ghosts, params, space);
        let t = &self.table;
        let nlocal = t.nlocal;
        let nslots = nlocal * t.max_bonds;
        for v in [
            &mut self.delta_p,
            &mut self.delta,
            &mut self.c_delta,
            &mut self.c_dp,
        ] {
            grown += ensure_len(v, nlocal);
        }
        for v in [&mut self.bo, &mut self.f, &mut self.df, &mut self.c_bo] {
            grown += ensure_len(v, nslots);
        }
        self.c_bo.fill(0.0);
        self.c_delta.fill(0.0);
        let typ = atoms.typ.h_view();
        for (i, dp) in self.delta_p.iter_mut().enumerate() {
            let mut sum = 0.0;
            for b in 0..t.count[i] as usize {
                sum += t.bo_p[t.slot(i, b)];
            }
            *dp = sum - params.elements[typ.at([i]) as usize].valence;
        }
        for i in 0..nlocal {
            let mut sum = 0.0;
            for b in 0..t.count[i] as usize {
                let sl = t.slot(i, b);
                let jo = t.owner[sl] as usize;
                let s = self.delta_p[i] + self.delta_p[jo];
                let (fv, dfv) = over_corr(s, params.p_corr);
                self.f[sl] = fv;
                self.df[sl] = dfv;
                self.bo[sl] = t.bo_p[sl] * fv;
                sum += self.bo[sl];
            }
            self.delta[i] = sum - params.elements[typ.at([i]) as usize].valence;
        }
        grown
    }

    /// Bond energy `E = Σ_{i<j} −De·BO·exp(pbe1(1−BO))` plus the
    /// over-coordination penalty `Σ_i p_over·Δ_i²` (counted on σ(Δ)>0
    /// smoothly via softplus square). Accumulates `c_bo` / `c_delta`.
    pub fn bonded_energy(&mut self, params: &ReaxParams, atoms: &AtomData) -> f64 {
        let typ = atoms.typ.h_view();
        let mut energy = 0.0;
        let nlocal = self.table.nlocal;
        for i in 0..nlocal {
            for b in 0..self.table.count[i] as usize {
                let sl = self.table.slot(i, b);
                let jo = self.table.owner[sl] as usize;
                // Count each physical bond once (robust for ghost
                // partners because owner indices are local).
                if jo < i {
                    continue;
                }
                if jo == i {
                    // Self-image bond: impossible for boxes larger than
                    // 2·r_bond, which `build_ghosts` already enforces.
                    continue;
                }
                let bo = self.bo[sl];
                let ti = typ.at([i]) as usize;
                let tj = typ.at([self.table.partner[sl] as usize]) as usize;
                let de = params.de(ti, tj);
                let ex = (params.pbe1 * (1.0 - bo)).exp();
                // g(BO) = BO/(BO + w) softens the attachment so both E
                // and dE/dBO vanish as a bond leaves the table (keeps
                // forces continuous across table rebuilds).
                let w = 0.02;
                let g = bo / (bo + w);
                let dg = w / ((bo + w) * (bo + w));
                energy += -de * bo * g * ex;
                let dedbo = -de * ex * (g + bo * dg - params.pbe1 * bo * g);
                // The i-row slot and the mirrored j-row slot hold the
                // same BO; assign the whole derivative to this slot.
                self.c_bo[sl] += dedbo;
            }
        }
        // Over-coordination: smooth one-sided penalty
        // E = p_over · softplus(Δ)² with softplus(x) = ln(1+eˣ)/1 scaled.
        for i in 0..nlocal {
            let d = self.delta[i];
            let sp = (1.0 + d.exp()).ln();
            let dsp = 1.0 / (1.0 + (-d).exp());
            energy += params.p_over * sp * sp;
            self.c_delta[i] += params.p_over * 2.0 * sp * dsp;
        }
        energy
    }

    /// Propagate the accumulated `∂E/∂BO` and `∂E/∂Δ` coefficients
    /// through the correction chain and add the resulting pair forces
    /// into `forces` (local rows; ghosts fold to owners). Returns the
    /// virial contribution.
    pub fn accumulate_forces(&mut self, forces: &mut [[f64; 3]]) -> f64 {
        let t = &self.table;
        let nlocal = t.nlocal;
        // Fold ∂E/∂Δ into each slot's ∂E/∂BO (Δ_i = Σ BO − val): the
        // bond (i,j) appears in both rows, contributing to Δ_i via the
        // i-row slot and Δ_j via the j-row slot.
        for i in 0..nlocal {
            for b in 0..t.count[i] as usize {
                let sl = t.slot(i, b);
                self.c_bo[sl] += self.c_delta[i];
            }
        }
        // Chain through BO = BO'·f(Δ'_i + Δ'_j):
        //   ∂E/∂BO'_slot (direct)   = c_bo·f
        //   ∂E/∂Δ'                  += c_bo·BO'·f'
        let c_dp = &mut self.c_dp[..nlocal];
        c_dp.fill(0.0);
        for i in 0..nlocal {
            for b in 0..t.count[i] as usize {
                let sl = t.slot(i, b);
                let jo = t.owner[sl] as usize;
                let w = self.c_bo[sl] * t.bo_p[sl] * self.df[sl];
                c_dp[i] += w;
                c_dp[jo] += w;
            }
        }
        // Final radial pass: ∂E/∂BO'_slot = c_bo·f + c_dp_i, and
        // BO'_slot depends only on r_slot.
        let mut virial = 0.0;
        for i in 0..nlocal {
            for b in 0..t.count[i] as usize {
                let sl = t.slot(i, b);
                let jo = t.owner[sl] as usize;
                let coeff = (self.c_bo[sl] * self.f[sl] + c_dp[i]) * t.dbo_p[sl];
                // dE/dr along d = x_j − x_i ⇒ force on j is −coeff·d̂.
                let rinv = 1.0 / t.r[sl];
                let fx = -coeff * t.dx[sl] * rinv;
                let fy = -coeff * t.dy[sl] * rinv;
                let fz = -coeff * t.dz[sl] * rinv;
                forces[jo][0] += fx;
                forces[jo][1] += fy;
                forces[jo][2] += fz;
                forces[i][0] -= fx;
                forces[i][1] -= fy;
                forces[i][2] -= fz;
                virial += t.dx[sl] * fx + t.dy[sl] * fy + t.dz[sl] * fz;
            }
        }
        virial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkk_core::comm::build_ghosts;
    use lkk_core::domain::Domain;
    use lkk_core::neighbor::NeighborSettings;

    fn small_system(
        positions: &[[f64; 3]],
        l: f64,
    ) -> (AtomData, Domain, NeighborList, GhostMap, ReaxParams) {
        let params = ReaxParams::single_element();
        let mut atoms = AtomData::from_positions(positions);
        let domain = Domain::cubic(l);
        atoms.wrap_positions(&domain);
        let settings = NeighborSettings::new(params.r_nonb, 0.3, false);
        let ghosts = build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let list = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        (atoms, domain, list, ghosts, params)
    }

    #[test]
    fn dimer_has_one_bond_each() {
        let (atoms, _, list, ghosts, params) =
            small_system(&[[9.0, 9.0, 9.0], [10.4, 9.0, 9.0]], 18.0);
        let mut table = BondTable::default();
        table.build(&atoms, &list, &ghosts, &params, &Space::Serial);
        assert_eq!(table.count, vec![1, 1]);
        let sl0 = table.slot(0, 0);
        assert_eq!(table.owner[sl0], 1);
        assert!((table.r[sl0] - 1.4).abs() < 1e-12);
        assert!(table.bo_p[sl0] > 0.5);
        assert_eq!(table.total_bonds(), 2);
    }

    #[test]
    fn far_pair_is_not_bonded() {
        let (atoms, _, list, ghosts, params) =
            small_system(&[[9.0, 9.0, 9.0], [13.0, 9.0, 9.0]], 18.0);
        let mut table = BondTable::default();
        table.build(&atoms, &list, &ghosts, &params, &Space::Serial);
        assert_eq!(table.total_bonds(), 0);
    }

    #[test]
    fn bond_crossing_pbc_found_via_ghost() {
        let (atoms, _, list, ghosts, params) =
            small_system(&[[0.3, 9.0, 9.0], [17.1, 9.0, 9.0]], 18.0);
        // Separation through the boundary: 0.3 + (18−17.1) = 1.2.
        let mut table = BondTable::default();
        table.build(&atoms, &list, &ghosts, &params, &Space::Serial);
        assert_eq!(table.count, vec![1, 1]);
        let sl = table.slot(0, 0);
        assert!((table.r[sl] - 1.2).abs() < 1e-12);
        // The partner row is a ghost; its owner is atom 1.
        assert!(table.partner[sl] as usize >= atoms.nlocal);
        assert_eq!(table.owner[sl], 1);
    }

    #[test]
    fn overcoordination_reduces_bond_order() {
        // A central atom with 6 close neighbors is over-coordinated
        // (valence 4): corrected BO < raw BO'.
        let mut pos = vec![[9.0, 9.0, 9.0]];
        let d = 1.4;
        for k in 0..3 {
            for s in [-1.0, 1.0] {
                let mut p = [9.0, 9.0, 9.0];
                p[k] += s * d;
                pos.push(p);
            }
        }
        let (atoms, _, list, ghosts, params) = small_system(&pos, 18.0);
        let mut state = BondState::default();
        state.build(&atoms, &list, &ghosts, &params, &Space::Serial);
        assert_eq!(state.table.count[0], 6);
        let sl = state.table.slot(0, 0);
        assert!(state.bo[sl] < state.table.bo_p[sl]);
        assert!(state.delta_p[0] > 0.0, "Δ' = {}", state.delta_p[0]);
    }

    /// The decisive test: forces from the full BO chain (including the
    /// over-coordination correction and Δ-penalty) match the finite
    /// difference of the bonded energy.
    #[test]
    fn bonded_forces_match_finite_difference() {
        let base = vec![
            [9.0, 9.0, 9.0],
            [10.35, 9.1, 8.9],
            [8.1, 10.0, 9.2],
            [9.2, 8.0, 10.1],
            [10.0, 10.2, 10.0],
        ];
        let energy_of = |pos: &[[f64; 3]]| -> f64 {
            let (atoms, _, list, ghosts, params) = small_system(pos, 18.0);
            let mut state = BondState::default();
            state.build(&atoms, &list, &ghosts, &params, &Space::Serial);
            state.bonded_energy(&params, &atoms)
        };
        // Analytic forces.
        let (atoms, _, list, ghosts, params) = small_system(&base, 18.0);
        let mut state = BondState::default();
        state.build(&atoms, &list, &ghosts, &params, &Space::Serial);
        let _e = state.bonded_energy(&params, &atoms);
        let mut forces = vec![[0.0; 3]; atoms.nlocal];
        state.accumulate_forces(&mut forces);
        let h = 1e-6;
        for a in 0..base.len() {
            for k in 0..3 {
                let mut pp = base.clone();
                let mut pm = base.clone();
                pp[a][k] += h;
                pm[a][k] -= h;
                let fd = -(energy_of(&pp) - energy_of(&pm)) / (2.0 * h);
                assert!(
                    (forces[a][k] - fd).abs() < 1e-5 * fd.abs().max(1.0),
                    "atom {a} dir {k}: analytic {} vs fd {fd}",
                    forces[a][k]
                );
            }
        }
    }

    #[test]
    fn over_corr_derivative_matches_fd() {
        for &s in &[-2.0f64, -0.5, 0.0, 0.8, 1.5, 3.0] {
            let h = 1e-7;
            let fd = (over_corr(s + h, 2.5).0 - over_corr(s - h, 2.5).0) / (2.0 * h);
            let (_, df) = over_corr(s, 2.5);
            assert!((df - fd).abs() < 1e-6);
        }
    }
}
