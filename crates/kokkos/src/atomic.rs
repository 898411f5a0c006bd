//! Atomic double-precision accumulation.
//!
//! GPUs provide hardware FP64 atomic adds; on the host we emulate one
//! with a compare-and-swap loop over the IEEE-754 bit pattern, the same
//! strategy Kokkos uses on architectures without native FP64 atomics.

use std::sync::atomic::{AtomicU64, Ordering};

/// An `f64` supporting lock-free atomic add / load / store. It has the
/// layout of an `f64`, so [`AtomicF64::from_mut_slice`] can view plain
/// storage as cells that work items share.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct AtomicF64(AtomicU64);

const _: () = assert!(
    std::mem::size_of::<AtomicU64>() == std::mem::size_of::<f64>()
        && std::mem::align_of::<AtomicU64>() <= std::mem::align_of::<f64>()
);

impl AtomicF64 {
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// `v` as cells that concurrent work items update through
    /// [`AtomicF64::fetch_add`]: for conflicting writes where a
    /// `ScatterView`'s buffers are not wanted (each cell is a plain
    /// `f64` again once the borrow ends).
    pub fn from_mut_slice(v: &mut [f64]) -> &[AtomicF64] {
        // SAFETY: `AtomicF64` is a transparent `AtomicU64`, of the size of
        // an `f64` and no stricter alignment (asserted above), and every
        // bit pattern is a valid `u64`. The exclusive borrow is held for
        // as long as the cells live, so every access to the storage in
        // that time goes through them.
        unsafe { &*(v as *mut [f64] as *const [AtomicF64]) }
    }

    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    #[inline]
    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed)
    }

    /// Atomically add `v`, returning the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn basic_ops() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.0);
        assert_eq!(a.load(), -2.0);
        let prev = a.fetch_add(0.5);
        assert_eq!(prev, -2.0);
        assert_eq!(a.load(), -1.5);
    }

    #[test]
    fn concurrent_adds_are_exact_with_equal_addends() {
        let a = AtomicF64::new(0.0);
        (0..10_000).into_par_iter().for_each(|_| {
            a.fetch_add(1.0);
        });
        assert_eq!(a.load(), 10_000.0);
    }

    /// The slice view: concurrent equal addends into shared cells sum
    /// exactly, and the storage reads as plain `f64` afterwards.
    #[test]
    fn slice_view_sums_concurrent_adds_exactly() {
        let mut xs = vec![1.0f64; 4];
        let cells = AtomicF64::from_mut_slice(&mut xs);
        (0..4000usize).into_par_iter().for_each(|i| {
            cells[i % 4].fetch_add(0.25);
        });
        assert_eq!(xs, [251.0; 4]);
    }
}
