//! `lkk-reaxff`: a reduced Reactive Force Field (ReaxFF), case study 2
//! of the paper (§4.2).
//!
//! ReaxFF models *dynamic* bond formation and dissociation: every
//! timestep recomputes pairwise bond orders, corrects them for
//! over-coordination, and evaluates bonded (2-, 3-, 4-body) and
//! non-bonded (tapered van der Waals + shielded Coulomb) energies, with
//! atomic charges re-equilibrated each step by the QEq method (two
//! Krylov solves on a shared sparse matrix).
//!
//! This is a *reduced* parameterization (see DESIGN.md §2): the σ-only
//! bond order with a smooth over-coordination correction stands in for
//! the full σ/π/π² machinery, and the angular/torsional forms are
//! simplified — but the **kernel structure is the paper's**: the
//! divergent pre-processing kernels that build compressed
//! triplet/quad interaction tables (§4.2.1), the over-allocated CSR
//! QEq matrix built with scan/fill kernels and hierarchical row
//! parallelism (§4.2.2), the fused dual CG solve (§4.2.3), and the
//! 64-bit row offsets with 32-bit column indices (Appendix B).
//!
//! Modules:
//!
//! * [`params`] — the reduced force-field parameter set and the
//!   synthetic HNS-like molecular crystal parameterization.
//! * [`taper`] — the ReaxFF 7th-order taper polynomial.
//! * [`bond_order`] — bond tables (2-D Views, Appendix B), bond orders,
//!   over-coordination correction, and the reverse-mode accumulation of
//!   `∂E/∂BO` chains into forces.
//! * [`angles`] / [`torsion`] — 3- and 4-body terms with
//!   count/fill/compute pre-processing kernel splits.
//! * [`nonbonded`] — tapered Morse van der Waals + shielded Coulomb:
//!   one per-type-pair coefficient table and one pair-term routine,
//!   shared by the force kernel and the QEq matrix fill, both of which
//!   evaluate each non-bonded pair once.
//! * [`qeq`] — charge equilibration: over-allocated CSR holding one
//!   triangle of the symmetric matrix, fused dual CG warm-started from
//!   an extrapolated, tag-keyed charge history.
//! * [`hns`] — the synthetic hexanitrostilbene-like benchmark crystal.
//! * [`pair_reaxff`] — the `pair_style reaxff` integration; owns the
//!   step-to-step state (one pooled workspace for every per-step table,
//!   and the charge history) and honours `eflag`.

pub mod angles;
pub mod bond_order;
pub mod hns;
pub mod nonbonded;
pub mod pair_reaxff;
pub mod params;
pub mod qeq;
pub mod taper;
pub mod torsion;

pub use pair_reaxff::PairReaxff;
pub use params::ReaxParams;

/// Resize a pooled buffer to `n` elements (new ones zero) without ever
/// giving capacity back; returns 1 if the heap block had to grow. A
/// growth reserves an eighth more than asked, so a length that moves a
/// little from step to step (the triplet and quad counts) settles after
/// one growth. The reserve is not written until a later length needs
/// it.
pub(crate) fn ensure_len<T: Copy + Default>(v: &mut Vec<T>, n: usize) -> u64 {
    let grew = n > v.capacity();
    if grew {
        v.reserve_exact(n + n / 8 - v.len());
    }
    v.resize(n, T::default());
    u64::from(grew)
}
