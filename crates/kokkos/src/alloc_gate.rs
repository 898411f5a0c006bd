//! Allocations made inside dispatch closures, counted.
//!
//! A kernel must not touch the allocator: its buffers are pooled and
//! reused across steps (`docs/performance.md`). Every [`crate::Space`]
//! dispatch raises a thread-local depth around each call of its closure,
//! and [`CountingAlloc`], installed as a test binary's
//! `#[global_allocator]`, counts the allocations made while the depth is
//! up — also those of a helper the closure calls, which no reading of
//! the closure's text would see. `tests/alloc_gate.rs` holds every pair
//! style to zero after a warm-up step.
//!
//! Debug builds only (`debug_assertions`): a release dispatch carries no
//! depth and this module does not exist.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Dispatch closure calls on this thread's stack.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

static IN_DISPATCH: AtomicU64 = AtomicU64::new(0);

/// Allocations and reallocations made so far, on any thread, while a
/// dispatch closure was running on it (counted by [`CountingAlloc`]).
pub fn in_dispatch() -> u64 {
    IN_DISPATCH.load(Ordering::Relaxed)
}

/// One dispatch closure call, from [`enter`] until it drops.
pub(crate) struct Call;

/// Raise this thread's depth for one closure call.
#[inline(always)]
pub(crate) fn enter() -> Call {
    DEPTH.with(|d| d.set(d.get() + 1));
    Call
}

impl Drop for Call {
    #[inline(always)]
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get() - 1));
    }
}

fn count() {
    // `try_with`: an allocation during thread teardown is not a kernel's.
    if DEPTH.try_with(Cell::get).is_ok_and(|depth| depth > 0) {
        IN_DISPATCH.fetch_add(1, Ordering::Relaxed);
    }
}

/// [`System`], counting what it hands out inside dispatch closures.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the count allocates nothing
// (a const-initialised thread-local and an atomic).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
