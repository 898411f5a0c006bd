//! Quantum-number index bookkeeping.
//!
//! All angular momenta are stored as *doubled* integers (`j = 2·J`),
//! so half-integer values are exact. A Wigner block `u_j` is a
//! `(j+1) × (j+1)` complex matrix indexed by `(mb, ma)` with
//! `ma, mb ∈ 0..=j` (the physical `m = ma − j/2`), and every matrix the
//! pipeline handles (`u`, `du`, `U`, `Z`, `Y`) obeys
//!
//! ```text
//! x_j(j−mb, j−ma) = (−1)^{mb+ma} · conj x_j(mb, ma)
//! ```
//!
//! so only the rows `mb ≤ ⌊j/2⌋` are stored (TestSNAP's `idxu_half`).
//! Blocks for all `j` up to `twojmax` are flattened into one array,
//! `j` slowest and `ma` fastest — §4.3.1's "j slowest, m' fastest
//! convention to promote locality: rows and columns of matrices stay
//! together". For even `j` the middle row `mb = j/2` is its own mirror
//! image; it is stored whole and weighted 1 where the other rows are
//! weighted 2 ([`SnapIndices::sym_weight`]).

/// Flattened indexing for the `u`/`Y` arrays and the bispectrum triples.
#[derive(Debug, Clone)]
pub struct SnapIndices {
    /// Doubled maximum angular momentum (`2·J_max`).
    pub twojmax: usize,
    /// Offset of block `j` in the flattened half-range array.
    pub u_block: Vec<usize>,
    /// Flattened half-range length (`Σ_j (⌊j/2⌋+1)(j+1)`; 155 at 2J = 8).
    pub u_len: usize,
    /// Full-range length `Σ_j (j+1)²` (285 at 2J = 8): what the modelled
    /// device kernels of Table 2 store. Cost model only.
    pub u_full_len: usize,
    /// The ordered bispectrum triples `(j1, j2, j)` with
    /// `0 ≤ j2 ≤ j1 ≤ j ≤ twojmax`, triangle-allowed, `j1+j2+j` even —
    /// the group-theoretic constraint of §4.3 that "significantly
    /// reduces the required work and storage".
    pub triples: Vec<(usize, usize, usize)>,
}

impl SnapIndices {
    pub fn new(twojmax: usize) -> Self {
        let mut u_block = Vec::with_capacity(twojmax + 1);
        let mut off = 0;
        for j in 0..=twojmax {
            u_block.push(off);
            off += (j / 2 + 1) * (j + 1);
        }
        let mut triples = Vec::new();
        for j1 in 0..=twojmax {
            for j2 in 0..=j1 {
                let mut j = j1 - j2;
                while j <= (j1 + j2).min(twojmax) {
                    if j >= j1 {
                        triples.push((j1, j2, j));
                    }
                    j += 2;
                }
            }
        }
        SnapIndices {
            twojmax,
            u_block,
            u_len: off,
            u_full_len: (0..=twojmax).map(|j| (j + 1) * (j + 1)).sum(),
            triples,
        }
    }

    /// Flattened index of the stored element `u_j(mb, ma)`, `mb ≤ j/2`.
    #[inline(always)]
    pub fn u_index(&self, j: usize, mb: usize, ma: usize) -> usize {
        debug_assert!(j <= self.twojmax && 2 * mb <= j && ma <= j);
        self.u_block[j] + mb * (j + 1) + ma
    }

    /// Any element `u_j(mb, ma)` of the full block in terms of the
    /// stored half: `(index, sign, conjugated)` with
    /// `u_j(mb, ma) = sign · u[index]` (conjugated if the flag is set).
    pub fn u_ref(&self, j: usize, mb: usize, ma: usize) -> (usize, f64, bool) {
        if 2 * mb <= j {
            (self.u_index(j, mb, ma), 1.0, false)
        } else {
            let sign = if (mb + ma).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            (self.u_index(j, j - mb, j - ma), sign, true)
        }
    }

    /// How many elements of the full block a stored row stands for: 2,
    /// or 1 on the self-mirrored middle row of an even `j`.
    pub fn sym_weight(j: usize, mb: usize) -> f64 {
        if 2 * mb == j {
            1.0
        } else {
            2.0
        }
    }

    /// Position of `(j1, j2, j)` (any order) among the bispectrum triples.
    pub fn triple_index(&self, a: usize, b: usize, c: usize) -> usize {
        let mut t = [a, b, c];
        t.sort_unstable();
        self.triples
            .iter()
            .position(|&x| x == (t[1], t[0], t[2]))
            .expect("triangle-allowed, even-parity triple")
    }

    /// Number of bispectrum components (`β` coefficients).
    pub fn n_bispectrum(&self) -> usize {
        self.triples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_offsets_and_length() {
        let idx = SnapIndices::new(4);
        // Half blocks: 1·1, 1·2, 2·3, 2·4, 3·5 → offsets 0, 1, 3, 9, 17.
        assert_eq!(idx.u_block, vec![0, 1, 3, 9, 17]);
        assert_eq!((idx.u_len, idx.u_full_len), (32, 55));
        assert_eq!(idx.u_index(2, 1, 2), 3 + 3 + 2);
        let idx = SnapIndices::new(8);
        assert_eq!((idx.u_len, idx.u_full_len), (155, 285));
    }

    #[test]
    fn mirrored_references_land_in_the_stored_half() {
        let idx = SnapIndices::new(5);
        assert_eq!(idx.u_ref(4, 1, 3), (idx.u_index(4, 1, 3), 1.0, false));
        assert_eq!(idx.u_ref(4, 3, 0), (idx.u_index(4, 1, 4), -1.0, true));
        assert_eq!(idx.u_ref(5, 5, 5), (idx.u_index(5, 0, 0), 1.0, true));
        assert_eq!(SnapIndices::sym_weight(4, 2), 1.0);
        assert_eq!(SnapIndices::sym_weight(5, 2), 2.0);
        assert_eq!(idx.triple_index(4, 2, 2), idx.triple_index(2, 4, 2));
        assert_eq!(idx.triples[idx.triple_index(4, 2, 2)], (2, 2, 4));
    }

    #[test]
    fn triple_count_matches_lammps_convention() {
        // LAMMPS `twojmax = 8` (J = 4) gives 55 bispectrum components
        // under the j >= j1 >= j2 ordering with even parity.
        assert_eq!(SnapIndices::new(8).n_bispectrum(), 55);
        // twojmax = 6 gives 30, twojmax = 4 gives 14, twojmax = 2 gives 5.
        assert_eq!(SnapIndices::new(6).n_bispectrum(), 30);
        assert_eq!(SnapIndices::new(4).n_bispectrum(), 14);
        assert_eq!(SnapIndices::new(2).n_bispectrum(), 5);
    }

    #[test]
    fn triples_obey_constraints() {
        let idx = SnapIndices::new(8);
        for &(j1, j2, j) in &idx.triples {
            assert!(j2 <= j1 && j1 <= j && j <= 8);
            assert!(j + j2 >= j1 && j1 + j2 >= j, "triangle violated");
            assert_eq!((j1 + j2 + j) % 2, 0, "parity violated");
        }
        // No duplicates.
        #[expect(
            clippy::disallowed_types,
            reason = "insert-only set, never iterated: hash order cannot leak into the assertion"
        )]
        let mut seen = std::collections::HashSet::new();
        for t in &idx.triples {
            assert!(seen.insert(*t));
        }
    }
}
