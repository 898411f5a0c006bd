//! `lkk-snap`: the Spectral Neighbor Analysis Potential (SNAP),
//! case study 3 of the paper (§4.3).
//!
//! SNAP encodes each atom's neighborhood by mapping relative neighbor
//! positions onto the 3-sphere and expanding the resulting density in
//! hyperspherical harmonics (Wigner U-matrices, eq. 2), then forming
//! rotation-invariant triple products (bispectrum components `B`,
//! eq. 3). The energy is a learned linear combination of the `B`
//! (eq. 4), and forces contract the adjoint `Y` matrices with the
//! U-matrix derivatives (eq. 5).
//!
//! Module map:
//!
//! * [`indices`] — the flattened `(j, mb, ma)` quantum-number indexing
//!   (§4.3.1: "j slowest, m' fastest ... rows and columns stay
//!   together"), storing only the independent half `mb ≤ ⌊j/2⌋` of
//!   every block (TestSNAP's `idxu_half`), and the bispectrum triples.
//! * [`cg`] — Clebsch-Gordan coupling coefficients.
//! * [`hyper`] — the r → 3-sphere map (Cayley-Klein parameters a, b),
//!   the smooth cutoff function, and their Cartesian derivatives.
//! * [`wigner`] — the recursive Wigner-U evaluation (**ComputeUi**'s
//!   inner recursion) and its reverse sweep (**ComputeDuidrj** taken
//!   backwards: `∂(Y·u)/∂(a, b)` from one adjoint pass), row by row
//!   over the stored half.
//! * [`tables`] — the flattened sparse contraction tables (TestSNAP's
//!   `idxz` recipe) as rows of weighted products `Σ w·U·U`: the `z`
//!   rows the energy contracts, and the `y` rows that build the adjoint
//!   `Y = Σ βj·Z` in one pass (LAMMPS' `compute_yi`), zero entries
//!   stripped at construction.
//! * [`context`] — the per-atom kernels: `compute_ui` (with the
//!   §4.3.4 neighbor work-batching variants), `compute_bi`,
//!   `compute_yi_block` (the adjoint of a block of atoms per table
//!   walk), and `compute_deidrj` (the force contraction: forward
//!   `u`, one reverse sweep, a 4 × 3 contraction with the map's
//!   derivatives).
//! * [`pair_snap`] — the `pair_style snap` integration with `lkk-core`,
//!   fissioned into staged ComputeUi / ComputeYi / ComputeDeidrj
//!   kernels over one pooled arena, with per-stage profile regions.
//! * `reference` (tests only) — the full-range direct loops and their
//!   reverse-mode adjoint, the oracle of the unit tests.
//!
//! Correctness is anchored by that oracle (≤ 1e-12 on `B`, `E_i`,
//! `∂E_i/∂x_k`), finite-difference force checks and
//! rotation-invariance tests of `B` (see `context::tests` and
//! `tests/snap_physics.rs`).

pub mod cg;
pub mod context;
pub mod hyper;
pub mod indices;
pub mod pair_snap;
mod reference;
pub mod tables;
pub mod wigner;

pub use context::{SnapContext, SnapKernelConfig, SnapWork, YI_BLOCK};
pub use pair_snap::{PairSnap, SnapParams};
pub use tables::ContractionTables;
