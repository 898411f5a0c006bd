//! Thread-local neighbor scratch shared by pair kernels.
//!
//! Several pair styles pre-filter the in-cutoff neighbors of each atom
//! into dense arrays before the force loop (divergence pre-processing,
//! §4.2.1 pattern). Allocating those arrays per work item violates the
//! steady-state zero-alloc invariant (gated by `tests/alloc_gate.rs`):
//! the allocator is a serialization point under parallel dispatch and
//! the per-atom `malloc`/`free` churn dwarfs the filter itself for small
//! neighbor counts.
//!
//! This module keeps one reusable buffer set per OS thread. Capacity
//! grows to the high-water mark (max neighbors / descriptor width seen
//! by that thread) and is then re-used allocation-free. The vendored
//! rayon shim runs every dispatch on the calling thread and its
//! persistent workers, so a buffer set is allocated once per thread per
//! process.

use std::cell::RefCell;

/// Reusable per-thread buffers for neighbor pre-filtering and
/// fixed-width descriptor work.
#[derive(Default)]
pub struct NeighScratch {
    /// Relative positions `x_j − x_i` of in-cutoff neighbors.
    pub rel: Vec<[f64; 3]>,
    /// Distances (or squared distances — kernel's choice).
    pub rs: Vec<f64>,
    /// Neighbor atom indices.
    pub ids: Vec<usize>,
    /// Neighbor weights / descriptor values.
    pub a: Vec<f64>,
    /// Descriptor gradients / second value channel.
    pub b: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<NeighScratch> = RefCell::new(NeighScratch::default());
}

/// Run `f` with this thread's scratch. The vectors are cleared (length
/// zero, capacity kept) before `f` sees them.
///
/// Nesting panics (`RefCell` double-borrow) by design: a kernel that
/// re-enters `with_neigh_scratch` from inside `f` would silently alias
/// its own buffers.
pub fn with_neigh_scratch<R>(f: impl FnOnce(&mut NeighScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        s.rel.clear();
        s.rs.clear();
        s.ids.clear();
        s.a.clear();
        s.b.clear();
        f(&mut s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_cleared_but_keeps_capacity() {
        let cap = with_neigh_scratch(|s| {
            s.rel.extend([[1.0, 2.0, 3.0]; 64]);
            s.a.extend([0.5; 128]);
            s.rel.capacity()
        });
        with_neigh_scratch(|s| {
            assert!(s.rel.is_empty());
            assert!(s.a.is_empty());
            assert!(s.rel.capacity() >= cap);
        });
    }

    #[test]
    fn scratch_is_per_thread() {
        with_neigh_scratch(|s| {
            s.ids.push(7);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    // A different thread gets its own buffers, so this
                    // nested use must not double-borrow or see data.
                    with_neigh_scratch(|inner| assert!(inner.ids.is_empty()));
                });
            });
            assert_eq!(s.ids, [7]);
        });
    }
}
