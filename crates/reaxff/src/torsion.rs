//! The four-body torsion term — the flagship divergence case of §4.2.1.
//!
//! "The four-body force considers potentially bonded quads of atoms
//! i, j, k, l. ... The quad of atoms contributes to the torsion force
//! if (i, j) are bonded, (i, k) are bonded, and (j, l) are bonded.
//! There is also a constraint on the product of the bond orders. For
//! HNS, in practice fewer than 5% of possible quads satisfy each
//! constraint, which leads to a high degree of divergence. ... The
//! solution here is to split the kernel into two divergent but
//! relatively inexpensive pre-processing kernels and a fully convergent
//! computation kernel. The first pre-processing kernel counts the total
//! number of quads ..., the second stores the quads. ... all quads for
//! an atom i are guaranteed to be contiguous."
//!
//! Reduced torsional form around the dihedral chain `k–i–j–l`:
//!
//! ```text
//! E = k_tors · fb(BO_ik) fb(BO_ij) fb(BO_jl) · (1 + cos 3φ),
//! cos 3φ = 4 cos³φ − 3 cos φ,
//! ```
//!
//! with `fb` supported only above `tors_bo_min`, so the hard
//! pre-processing filter coincides exactly with the support of the
//! energy (forces stay continuous when quads enter/leave the table).

use crate::angles::fb;
use crate::bond_order::BondState;
use crate::ensure_len;
use crate::params::ReaxParams;
use lkk_kokkos::{parts, AtomicF64, Space};

/// A compressed quad: center atom `i`, bond slots for (i,k), (i,j) in
/// `i`'s row, and the slot for (j,l) in `owner(j)`'s row.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quad {
    pub i: u32,
    pub b_ik: u32,
    pub b_ij: u32,
    pub b_jl: u32,
}

/// Pre-processing statistics: candidates examined vs. quads kept
/// (the paper's <5% selectivity).
#[derive(Debug, Clone, Copy, Default)]
pub struct QuadStats {
    pub candidates: u64,
    pub kept: u64,
}

#[inline]
fn cross(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

#[inline]
fn dot(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

/// Is the quad eligible? (All three bond orders in the `fb` support,
/// `l` distinct from `i` and `k`, one direction per center bond.)
#[inline]
fn eligible(
    state: &BondState,
    params: &ReaxParams,
    i: usize,
    s_ik: usize,
    s_ij: usize,
    s_jl: usize,
) -> bool {
    let t = &state.table;
    let bo_min = params.tors_bo_min;
    if state.bo[s_ik] <= bo_min || state.bo[s_ij] <= bo_min || state.bo[s_jl] <= bo_min {
        return false;
    }
    let lo = t.owner[s_jl] as usize;
    let ko = t.owner[s_ik] as usize;
    // Exclude l == i (the bond (j,l) pointing straight back at i).
    if lo == i {
        let back = [
            t.dx[s_jl] + t.dx[s_ij],
            t.dy[s_jl] + t.dy[s_ij],
            t.dz[s_jl] + t.dz[s_ij],
        ];
        if dot(back, back) < 1e-16 {
            return false;
        }
    }
    // Exclude l == k (a 3-ring closing on the same atom image).
    if lo == ko {
        let diff = [
            t.dx[s_jl] - (t.dx[s_ik] - t.dx[s_ij]),
            t.dy[s_jl] - (t.dy[s_ik] - t.dy[s_ij]),
            t.dz[s_jl] - (t.dz[s_ik] - t.dz[s_ij]),
        ];
        if dot(diff, diff) < 1e-16 {
            return false;
        }
    }
    true
}

/// Walk the candidate quads centred on `i` in table order: `f(Some(quad))`
/// for each one kept, `f(None)` for each one rejected. Each physical
/// dihedral is generated once per *directed* center bond; only the
/// direction with `i < owner(j)` is walked (ties cannot occur for boxes
/// larger than twice the bond cutoff).
#[inline]
fn quads_of(state: &BondState, params: &ReaxParams, i: usize, mut f: impl FnMut(Option<Quad>)) {
    let t = &state.table;
    let nb = t.count[i] as usize;
    for b_ij in 0..nb {
        let s_ij = t.slot(i, b_ij);
        let jo = t.owner[s_ij] as usize;
        if jo <= i {
            continue;
        }
        let nbj = t.count[jo] as usize;
        for b_ik in 0..nb {
            if b_ik == b_ij {
                continue;
            }
            for b_jl in 0..nbj {
                let s_ik = t.slot(i, b_ik);
                let s_jl = t.slot(jo, b_jl);
                let kept = eligible(state, params, i, s_ik, s_ij, s_jl).then_some(Quad {
                    i: i as u32,
                    b_ik: b_ik as u32,
                    b_ij: b_ij as u32,
                    b_jl: b_jl as u32,
                });
                f(kept);
            }
        }
    }
}

/// The compressed quad table with its per-atom counts, candidate
/// tallies and offsets: one pooled workspace, refilled in place by
/// [`QuadTable::build`], grown never shrunk.
#[derive(Debug, Default)]
pub struct QuadTable {
    /// All quads of a center atom are contiguous.
    pub quads: Vec<Quad>,
    /// Candidates examined and quads kept by the last build.
    pub stats: QuadStats,
    counts: Vec<usize>,
    cands: Vec<u64>,
    offsets: Vec<usize>,
}

impl QuadTable {
    /// Count + fill the compressed quad table: a divergent count pass,
    /// a scan, and a fill pass that walks the same candidates again.
    /// Returns how many buffers had to grow (0 in steady state).
    pub fn build(&mut self, state: &BondState, params: &ReaxParams, space: &Space) -> u64 {
        let nlocal = state.table.nlocal;
        let mut grown = ensure_len(&mut self.counts, nlocal);
        grown += ensure_len(&mut self.cands, nlocal);
        grown += ensure_len(&mut self.offsets, nlocal + 1);
        let tallies = (
            parts::elements(&mut self.counts),
            parts::elements(&mut self.cands),
        );
        space.parallel_for_parts("TorsionCount", nlocal, tallies, |i, (c, cand)| {
            (*c, *cand) = (0, 0);
            quads_of(state, params, i, |quad| {
                *cand += 1;
                *c += usize::from(quad.is_some());
            });
        });
        let total = space.parallel_scan("TorsionScan", &self.counts, &mut self.offsets);
        grown += ensure_len(&mut self.quads, total);
        let ranges = parts::csr(&mut self.quads, &self.offsets);
        space.parallel_for_parts("TorsionFill", nlocal, ranges, |i, mine| {
            let mut at = 0;
            quads_of(state, params, i, |quad| {
                if let Some(quad) = quad {
                    mine[at] = quad;
                    at += 1;
                }
            });
        });
        self.stats = QuadStats {
            candidates: self.cands.iter().sum(),
            kept: total as u64,
        };
        grown
    }
}

/// Fully convergent torsion kernel over the compressed quad table.
/// Adds forces to owner rows, `∂E/∂BO` into `state.c_bo` (atomics),
/// and returns `(energy, virial)`.
pub fn compute_torsions(
    quads: &[Quad],
    state: &mut BondState,
    params: &ReaxParams,
    forces: &mut [[f64; 3]],
    space: &Space,
) -> (f64, f64) {
    // Slots and atoms are shared between quads: atomic cells.
    let c_bo = AtomicF64::from_mut_slice(&mut state.c_bo);
    let f = AtomicF64::from_mut_slice(forces.as_flattened_mut());
    let t = &state.table;
    let bo = &state.bo;
    let bo_min = params.tors_bo_min;
    space.parallel_reduce(
        "TorsionCompute",
        quads.len(),
        (0.0f64, 0.0f64),
        |q| {
            let quad = quads[q];
            let i = quad.i as usize;
            let s_ik = t.slot(i, quad.b_ik as usize);
            let s_ij = t.slot(i, quad.b_ij as usize);
            let jo = t.owner[s_ij] as usize;
            let s_jl = t.slot(jo, quad.b_jl as usize);
            let ko = t.owner[s_ik] as usize;
            let lo = t.owner[s_jl] as usize;
            // Chain vectors: b1 = x_i−x_k, b2 = x_j−x_i, b3 = x_l−x_j.
            let b1 = [-t.dx[s_ik], -t.dy[s_ik], -t.dz[s_ik]];
            let b2 = [t.dx[s_ij], t.dy[s_ij], t.dz[s_ij]];
            let b3 = [t.dx[s_jl], t.dy[s_jl], t.dz[s_jl]];
            let n1 = cross(b1, b2);
            let n2 = cross(b2, b3);
            let n1sq = dot(n1, n1);
            let n2sq = dot(n2, n2);
            if n1sq < 1e-12 || n2sq < 1e-12 {
                return (0.0, 0.0); // collinear chain: no defined dihedral
            }
            let inv = 1.0 / (n1sq * n2sq).sqrt();
            let c = (dot(n1, n2) * inv).clamp(-1.0, 1.0);
            let (fb1, dfb1) = fb(bo[s_ik], bo_min, params.p_ang_bo);
            let (fb2, dfb2) = fb(bo[s_ij], bo_min, params.p_ang_bo);
            let (fb3, dfb3) = fb(bo[s_jl], bo_min, params.p_ang_bo);
            // 1 + cos3φ = 1 + 4c³ − 3c.
            let shape = 1.0 + 4.0 * c * c * c - 3.0 * c;
            let e = params.k_tors * fb1 * fb2 * fb3 * shape;
            c_bo[s_ik].fetch_add(params.k_tors * dfb1 * fb2 * fb3 * shape);
            c_bo[s_ij].fetch_add(params.k_tors * fb1 * dfb2 * fb3 * shape);
            c_bo[s_jl].fetch_add(params.k_tors * fb1 * fb2 * dfb3 * shape);
            // Geometric force through cosφ.
            let dedc = params.k_tors * fb1 * fb2 * fb3 * (12.0 * c * c - 3.0);
            // v1 = ∂c/∂n1, v2 = ∂c/∂n2.
            let mut v1 = [0.0f64; 3];
            let mut v2 = [0.0f64; 3];
            for k in 0..3 {
                v1[k] = n2[k] * inv - c * n1[k] / n1sq;
                v2[k] = n1[k] * inv - c * n2[k] / n2sq;
            }
            let g_b1 = cross(b2, v1);
            let g_b2 = [
                cross(v1, b1)[0] + cross(b3, v2)[0],
                cross(v1, b1)[1] + cross(b3, v2)[1],
                cross(v1, b1)[2] + cross(b3, v2)[2],
            ];
            let g_b3 = cross(v2, b2);
            // Position gradients (b1 = x_i−x_k etc.).
            let mut w = 0.0;
            for k in 0..3 {
                let f_k = dedc * g_b1[k]; // −∂E/∂x_k = +dedc·g_b1
                let f_i = -dedc * (g_b1[k] - g_b2[k]);
                let f_j = -dedc * (g_b2[k] - g_b3[k]);
                let f_l = -dedc * g_b3[k];
                f[3 * ko + k].fetch_add(f_k);
                f[3 * i + k].fetch_add(f_i);
                f[3 * jo + k].fetch_add(f_j);
                f[3 * lo + k].fetch_add(f_l);
                // Virial from the three chain vectors: Σ b·f over
                // the bond-relative force decomposition.
                w += b1[k] * (-f_k) + b3[k] * f_l + b2[k] * (f_j + f_l);
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
    fn cross_and_dot() {
        let x = [1.0, 0.0, 0.0];
        let y = [0.0, 1.0, 0.0];
        assert_eq!(cross(x, y), [0.0, 0.0, 1.0]);
        assert_eq!(dot(x, y), 0.0);
    }

    fn state_for(positions: &[[f64; 3]]) -> (BondState, crate::params::ReaxParams, AtomData) {
        let params = crate::params::ReaxParams::single_element();
        let mut atoms = AtomData::from_positions(positions);
        let domain = Domain::cubic(18.0);
        atoms.wrap_positions(&domain);
        let settings = NeighborSettings::new(params.r_nonb, 0.3, false);
        let ghosts = build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let list = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        let mut state = BondState::default();
        state.build(&atoms, &list, &ghosts, &params, &Space::Serial);
        (state, params, atoms)
    }

    fn quads(state: &BondState, params: &ReaxParams, space: &Space) -> (Vec<Quad>, QuadStats) {
        let mut table = QuadTable::default();
        table.build(state, params, space);
        (table.quads, table.stats)
    }

    #[test]
    fn butane_like_chain_has_exactly_one_quad() {
        // A 4-atom zig-zag chain k–i–j–l: one dihedral.
        let (state, params, _atoms) = state_for(&[
            [6.0, 6.0, 6.0],
            [7.4, 6.2, 6.0],
            [8.0, 7.4, 6.4],
            [9.4, 7.5, 6.7],
        ]);
        let (quads, stats) = quads(&state, &params, &Space::Serial);
        assert_eq!(quads.len(), 1, "stats {stats:?}");
        assert_eq!(stats.kept, 1);
        // And the paper's selectivity statistic is meaningful:
        assert!(stats.candidates >= stats.kept);
    }

    #[test]
    fn dimer_has_no_quads() {
        let (state, params, _): (BondState, _, _) = state_for(&[[6.0, 6.0, 6.0], [7.4, 6.0, 6.0]]);
        let (quads, stats) = quads(&state, &params, &Space::Serial);
        assert!(quads.is_empty());
        assert_eq!(stats.kept, 0);
    }

    #[test]
    fn quad_table_is_deterministic_across_spaces() {
        // The scan+fill construction ("all quads for an atom i are
        // guaranteed to be contiguous") produces identical tables under
        // serial and threaded execution.
        let mut positions = Vec::new();
        for m in 0..3 {
            let base = [5.0 + 3.5 * m as f64, 6.0, 6.0];
            positions.push(base);
            positions.push([base[0] + 1.4, base[1] + 0.2, base[2]]);
            positions.push([base[0] + 2.0, base[1] + 1.4, base[2] + 0.4]);
        }
        let (mut state, params, _) = state_for(&positions);
        let (q1, s1) = quads(&state, &params, &Space::Serial);
        let (q2, s2) = quads(&state, &params, &Space::Threads);
        assert_eq!(s1.kept, s2.kept);
        for (a, b) in q1.iter().zip(&q2) {
            assert_eq!((a.i, a.b_ik, a.b_ij, a.b_jl), (b.i, b.b_ik, b.b_ij, b.b_jl));
        }
        // Torsion energy is identical too.
        let mut f1 = vec![[0.0; 3]; state.table.nlocal];
        let (e1, _) = compute_torsions(&q1, &mut state, &params, &mut f1, &Space::Serial);
        state.c_bo.iter_mut().for_each(|x| *x = 0.0);
        let mut f2 = vec![[0.0; 3]; state.table.nlocal];
        let (e2, _) = compute_torsions(&q2, &mut state, &params, &mut f2, &Space::Threads);
        assert!((e1 - e2).abs() < 1e-12 * e1.abs().max(1.0));
    }
}
