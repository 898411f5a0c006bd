//! Write-conflict deconfliction: `ScatterView`.
//!
//! §3.2 of the paper: "ScatterView ... was designed to handle
//! unstructured accumulation of data from multiple threads in a way
//! that write conflicts are avoided. It can transparently swap between
//! using atomic operations, a data duplication strategy, or even simple
//! sequential accumulation... On CPUs, data duplication with a
//! subsequent combining step is often the most effective way to deal
//! with write conflicts, while on GPUs data duplication is infeasible
//! due to the large number of active threads and thus atomic operations
//! need to be used."
//!
//! The flat target is an `n × ncols` array (e.g. forces: `n_atoms × 3`).

use crate::atomic::AtomicF64;
use crate::exec::Space;
use std::cell::UnsafeCell;

/// Dynamic write-conflict detection for the unsynchronised storage
/// modes, compiled in only under `debug_assertions` or the
/// `conflict-detect` feature (release builds carry zero detector code
/// or state — see `docs/static-analysis.md` for the cost model).
///
/// The invariant being checked is *epoch ownership*: between two epoch
/// boundaries (`contribute_into`, `reset`, `ensure`), each duplicated
/// copy — and a `Sequential` view as a whole — may be written by at
/// most one claimant. A claimant is either *the worker pool* (any
/// rayon worker thread writing its own copy; disjoint by construction)
/// or one specific *foreign* thread (no worker index, mapped to copy
/// 0 by the `unwrap_or(0)` fallback in [`ScatterView::access`]). The
/// claim is made once per [`ScatterAccess`] handle — ownership is per
/// copy per epoch, so checking every add through the handle would
/// repeat the same comparison. Two
/// distinct claimants inside one epoch are reported even when their
/// writes did not overlap in time: the pattern is one scheduler
/// reshuffle away from silent corruption, so it is treated as a
/// deterministic failure rather than a latent race.
///
/// `Atomic` mode is race-free for accumulation by construction, so
/// overlapping writers there are *recorded* (per-index owner words,
/// [`ScatterView::conflict_overlaps`]) but never fatal.
#[cfg(any(debug_assertions, feature = "conflict-detect"))]
mod conflict {
    use super::ScatterMode;
    use std::panic::Location;
    use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

    /// Claimant word: 0 = unclaimed this epoch, `POOL` = some rayon
    /// worker writing its own copy, >= 2 = a specific foreign thread.
    const POOL: u64 = 1;

    static NEXT_FP: AtomicU64 = AtomicU64::new(2);
    thread_local! {
        static THREAD_FP: u64 = NEXT_FP.fetch_add(1, Ordering::Relaxed);
    }

    fn describe(claimant: u64) -> String {
        if claimant == POOL {
            "the worker pool".to_string()
        } else {
            format!("foreign thread #{claimant}")
        }
    }

    struct Slot {
        owner: AtomicU64,
        site: AtomicPtr<Location<'static>>,
    }

    impl Slot {
        fn new() -> Slot {
            Slot {
                owner: AtomicU64::new(0),
                site: AtomicPtr::new(std::ptr::null_mut()),
            }
        }
    }

    /// Per-view detector state. One `Slot` per duplicated copy (one
    /// total in `Sequential` mode); one owner word per flat index in
    /// `Atomic` mode.
    pub(super) struct Tracker {
        copies: Vec<Slot>,
        cells: Vec<AtomicU64>,
        overlaps: AtomicU64,
    }

    impl Tracker {
        pub(super) fn for_shape(mode: ScatterMode, ncopies: usize, len: usize) -> Tracker {
            let (nslots, ncells) = match mode {
                ScatterMode::Atomic => (0, len),
                ScatterMode::Duplicated => (ncopies, 0),
                ScatterMode::Sequential => (1, 0),
            };
            Tracker {
                copies: (0..nslots).map(|_| Slot::new()).collect(),
                cells: (0..ncells).map(|_| AtomicU64::new(0)).collect(),
                overlaps: AtomicU64::new(0),
            }
        }

        /// Claim `copy` for the calling context. `foreign` marks a
        /// caller with no rayon worker index (the copy-0 fallback in
        /// duplicated mode) or any `Sequential`-mode caller. Panics —
        /// naming both access sites — when a different claimant
        /// already owns the copy this epoch.
        #[inline]
        pub(super) fn claim(&self, copy: usize, foreign: bool, site: &'static Location<'static>) {
            let claimant = if foreign {
                THREAD_FP.with(|fp| *fp)
            } else {
                POOL
            };
            let slot = &self.copies[copy];
            match slot
                .owner
                .compare_exchange(0, claimant, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    slot.site.store(
                        site as *const _ as *mut Location<'static>,
                        Ordering::Release,
                    );
                }
                Err(prev) if prev == claimant => {}
                Err(prev) => {
                    // Give the first claimant a beat to publish its
                    // site pointer (it stores the site right after the
                    // winning CAS).
                    let mut first = slot.site.load(Ordering::Acquire);
                    for _ in 0..64 {
                        if !first.is_null() {
                            break;
                        }
                        std::hint::spin_loop();
                        first = slot.site.load(Ordering::Acquire);
                    }
                    let first_site = if first.is_null() {
                        "<site not yet published>".to_string()
                    } else {
                        // SAFETY: non-null pointers in `site` only ever
                        // come from `&'static Location` above.
                        unsafe { (*first).to_string() }
                    };
                    panic!(
                        "ScatterView write conflict on copy {copy}: claimed by {} at {first_site} \
                         and now written by {} at {site} within one accumulation epoch; separate \
                         the writers with contribute_into()/reset(), or use Atomic mode \
                         (see docs/static-analysis.md)",
                        describe(prev),
                        describe(claimant),
                    );
                }
            }
        }

        /// Record a writer on flat index `idx` in `Atomic` mode.
        /// Overlapping distinct writers are legal there (adds are
        /// element-atomic); they are only counted.
        #[inline]
        pub(super) fn record_atomic(&self, idx: usize) {
            let fp = THREAD_FP.with(|fp| *fp);
            let cell = &self.cells[idx];
            let prev = cell.load(Ordering::Relaxed);
            if prev == fp {
                return;
            }
            if prev != 0 {
                self.overlaps.fetch_add(1, Ordering::Relaxed);
            }
            cell.store(fp, Ordering::Relaxed);
        }

        /// Epoch boundary: release every ownership claim.
        pub(super) fn clear(&self) {
            for s in &self.copies {
                s.owner.store(0, Ordering::Release);
                s.site.store(std::ptr::null_mut(), Ordering::Release);
            }
            for c in &self.cells {
                c.store(0, Ordering::Relaxed);
            }
        }

        pub(super) fn overlaps(&self) -> u64 {
            self.overlaps.load(Ordering::Relaxed)
        }
    }
}

/// Contribution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScatterMode {
    /// Thread-atomic adds into a single copy (GPU default).
    Atomic,
    /// One private copy per thread, combined afterwards (CPU-threads
    /// default).
    Duplicated,
    /// Single copy, no synchronisation (serial default).
    Sequential,
}

impl ScatterMode {
    /// The default strategy for an execution space, mirroring Kokkos'
    /// `Experimental::ScatterDuplicated`/`ScatterAtomic` defaults.
    pub fn default_for(space: &Space) -> ScatterMode {
        match space {
            Space::Serial => ScatterMode::Sequential,
            Space::Threads => ScatterMode::Duplicated,
            Space::Device(_) => ScatterMode::Atomic,
        }
    }
}

/// Cache-line-aligned wrapper to prevent false sharing between
/// per-thread duplicates.
#[repr(align(64))]
struct Pad<T>(T);

enum Storage {
    Atomic(Vec<AtomicF64>),
    Duplicated(Vec<Pad<UnsafeCell<Vec<f64>>>>),
    Sequential(UnsafeCell<Vec<f64>>),
}

/// A scatter-add accumulation buffer over an `n × ncols` target.
///
/// ```
/// use lkk_kokkos::{ScatterMode, ScatterView};
/// let mut forces = ScatterView::new(4, 3, ScatterMode::Atomic);
/// forces.add(1, 0, 2.0);
/// forces.add(1, 0, 0.5);
/// let mut out = vec![0.0; 12];
/// forces.contribute_into(&mut out);
/// assert_eq!(out[3], 2.5);
/// ```
pub struct ScatterView {
    n: usize,
    ncols: usize,
    storage: Storage,
    /// Reused flat buffer for layout-transposing contributions
    /// (see [`ScatterView::contribute_into_view`]).
    scratch: Vec<f64>,
    /// Number of heap growths after construction (via [`ScatterView::ensure`]
    /// or the transpose scratch). Stable in steady state — the
    /// zero-per-step-allocation tests assert on this.
    grow_count: u64,
    /// Write-conflict detector state (debug/`conflict-detect` builds
    /// only; release builds carry no field and no per-add code).
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    conflict: conflict::Tracker,
}

// SAFETY: duplicated storage is only written through per-thread indices;
// sequential storage is only used without concurrency (see `access`).
unsafe impl Sync for ScatterView {}
// SAFETY: the `UnsafeCell`s own their buffers; moving the view moves them.
unsafe impl Send for ScatterView {}

/// Where a [`ScatterAccess`] handle writes.
#[derive(Clone, Copy)]
enum Target<'a> {
    Atomic(&'a [AtomicF64]),
    /// One unsynchronised buffer of `len` elements: the calling worker's
    /// duplicate, or the sequential buffer. A raw pointer, not a `&mut`,
    /// so successive handles of one worker never hold aliasing references.
    Plain {
        ptr: *mut f64,
        len: usize,
    },
}

impl Target<'_> {
    /// # Safety
    /// No other thread may use `cell` while the returned pointer is
    /// written through (each worker passes only its own copy).
    unsafe fn plain(cell: &UnsafeCell<Vec<f64>>) -> Self {
        let buf = &mut *cell.get();
        Target::Plain {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }
}

/// The calling worker's write handle on a [`ScatterView`], from
/// [`ScatterView::access`]. Take one per work item; never store it or
/// send it to another thread (the raw pointer makes it `!Send` and
/// `!Sync`, which the compile-time assertion below pins).
pub struct ScatterAccess<'a> {
    ncols: usize,
    target: Target<'a>,
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    conflict: &'a conflict::Tracker,
}

impl ScatterAccess<'_> {
    /// Accumulate `v` into element `(i, col)`.
    #[inline(always)]
    pub fn add(&self, i: usize, col: usize, v: f64) {
        self.add_at(i * self.ncols + col, [v]);
    }

    /// Accumulate `v` into row `i` of a three-column target: one bounds
    /// check for the three adds (one per add in `Atomic` mode, where the
    /// compare-exchange dwarfs it).
    #[inline(always)]
    pub fn add3(&self, i: usize, v: [f64; 3]) {
        assert_eq!(self.ncols, 3, "add3 needs a three-column target");
        self.add_at(i * 3, v);
    }

    /// Accumulate `v` into the `N >= 1` consecutive elements from `idx`.
    #[inline(always)]
    fn add_at<const N: usize>(&self, idx: usize, v: [f64; N]) {
        match self.target {
            Target::Atomic(a) => {
                for (k, vk) in v.into_iter().enumerate() {
                    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
                    self.conflict.record_atomic(idx + k);
                    a[idx + k].fetch_add(vk);
                }
            }
            Target::Plain { ptr, len } => {
                // One check for the `N` adds: `idx + N <= len`, written so
                // that a huge `idx` cannot wrap past it.
                assert!(
                    idx < len.saturating_sub(N - 1),
                    "ScatterView index {idx} out of bounds {len}"
                );
                for (k, vk) in v.into_iter().enumerate() {
                    // SAFETY: `ptr` addresses `len` elements of this
                    // worker's private copy (or the sequential buffer,
                    // single-threaded by contract), alive and unresized for
                    // `'a` because resizing needs `&mut ScatterView`;
                    // `idx + N <= len` was just checked.
                    unsafe { *ptr.add(idx + k) += vk };
                }
            }
        }
    }
}

// A handle moved to another worker would alias that worker's copy:
// compile-time proof that `ScatterAccess` is neither `Send` nor `Sync`
// (if it were, two impls below would apply and inference would fail).
const _: fn() = || {
    trait AmbiguousIfImpl<A> {
        fn check() {}
    }
    impl<T: ?Sized> AmbiguousIfImpl<()> for T {}
    struct IsSend;
    impl<T: ?Sized + Send> AmbiguousIfImpl<IsSend> for T {}
    struct IsSync;
    impl<T: ?Sized + Sync> AmbiguousIfImpl<IsSync> for T {}
    <ScatterAccess<'static> as AmbiguousIfImpl<_>>::check();
};

impl ScatterView {
    pub fn new(n: usize, ncols: usize, mode: ScatterMode) -> Self {
        let len = n * ncols;
        let storage = match mode {
            ScatterMode::Atomic => Storage::Atomic((0..len).map(|_| AtomicF64::new(0.0)).collect()),
            ScatterMode::Duplicated => {
                let copies = rayon::current_num_threads().max(1);
                Storage::Duplicated(
                    (0..copies)
                        .map(|_| Pad(UnsafeCell::new(vec![0.0; len])))
                        .collect(),
                )
            }
            ScatterMode::Sequential => Storage::Sequential(UnsafeCell::new(vec![0.0; len])),
        };
        #[cfg(any(debug_assertions, feature = "conflict-detect"))]
        let ncopies = match &storage {
            Storage::Duplicated(c) => c.len(),
            _ => 0,
        };
        ScatterView {
            n,
            ncols,
            storage,
            scratch: Vec::new(),
            grow_count: 0,
            #[cfg(any(debug_assertions, feature = "conflict-detect"))]
            conflict: conflict::Tracker::for_shape(mode, ncopies, len),
        }
    }

    /// Build with the default mode for `space`.
    pub fn for_space(n: usize, ncols: usize, space: &Space) -> Self {
        Self::new(n, ncols, ScatterMode::default_for(space))
    }

    /// Reshape in place to an `n × ncols` target in `mode`, reusing the
    /// existing buffers' capacity. This is the pooled path pair styles
    /// use across neighbor rebuilds (the ghost count — and therefore
    /// the target size — changes, the capacity does not, once it has
    /// peaked). All buffers are zeroed whenever the shape or mode
    /// changes; a no-op when shape and mode already match (buffers are
    /// already zero between uses — `contribute_into` and `reset`
    /// restore zeros). Returns `true` if any heap growth occurred.
    pub fn ensure(&mut self, n: usize, ncols: usize, mode: ScatterMode) -> bool {
        if self.mode() == mode && self.n == n && self.ncols == ncols {
            // Still an epoch boundary: the caller is about to start a
            // fresh accumulation pass over the same target.
            #[cfg(any(debug_assertions, feature = "conflict-detect"))]
            self.conflict.clear();
            return false;
        }
        let len = n * ncols;
        let mut grew = false;
        if self.mode() == mode {
            match &mut self.storage {
                Storage::Atomic(a) => {
                    grew |= len > a.capacity();
                    a.resize_with(len, || AtomicF64::new(0.0));
                    a.iter().for_each(|x| x.store(0.0));
                }
                Storage::Duplicated(copies) => {
                    let want = rayon::current_num_threads().max(1);
                    grew |= want > copies.capacity();
                    copies.resize_with(want, || Pad(UnsafeCell::new(Vec::new())));
                    for c in copies.iter_mut() {
                        let buf = c.0.get_mut();
                        grew |= len > buf.capacity();
                        buf.clear();
                        buf.resize(len, 0.0);
                    }
                }
                Storage::Sequential(buf) => {
                    let buf = buf.get_mut();
                    grew |= len > buf.capacity();
                    buf.clear();
                    buf.resize(len, 0.0);
                }
            }
        } else {
            // Mode switch: storage representations differ, so capacity
            // cannot carry over. Rare (a space change), and counted.
            let fresh = Self::new(n, ncols, mode);
            self.storage = fresh.storage;
            grew = len > 0;
        }
        self.n = n;
        self.ncols = ncols;
        #[cfg(any(debug_assertions, feature = "conflict-detect"))]
        {
            let ncopies = match &self.storage {
                Storage::Duplicated(c) => c.len(),
                _ => 0,
            };
            self.conflict = conflict::Tracker::for_shape(mode, ncopies, len);
        }
        if grew {
            self.grow_count += 1;
        }
        grew
    }

    /// Heap growths since construction (0 in steady state).
    pub fn grow_count(&self) -> u64 {
        self.grow_count
    }

    pub fn mode(&self) -> ScatterMode {
        match self.storage {
            Storage::Atomic(_) => ScatterMode::Atomic,
            Storage::Duplicated(_) => ScatterMode::Duplicated,
            Storage::Sequential(_) => ScatterMode::Sequential,
        }
    }

    pub fn target_len(&self) -> usize {
        self.n * self.ncols
    }

    /// A handle on the calling worker's share of the target — Kokkos'
    /// `auto a = sv.access(); a(j, k) += v`. Storage mode and the
    /// worker's private copy are resolved here, once, so a kernel takes
    /// one handle per work item and pays only the bounds check and the
    /// add per contribution.
    ///
    /// Safe under each mode's contract: `Atomic` is race-free by
    /// construction; `Duplicated` hands out only this rayon worker's
    /// private copy; `Sequential` must only be used from a single
    /// thread (its constructor is only chosen for serial spaces). The
    /// handle is neither `Send` nor `Sync`: on another worker it would
    /// alias that worker's copy.
    #[inline]
    #[cfg_attr(any(debug_assertions, feature = "conflict-detect"), track_caller)]
    pub fn access(&self) -> ScatterAccess<'_> {
        let target = match &self.storage {
            Storage::Atomic(a) => Target::Atomic(a),
            Storage::Duplicated(copies) => {
                let worker = rayon::current_thread_index();
                // Index `t` is stable for the duration of a dispatch
                // closure; a thread outside the pool shares copy 0.
                let t = worker.unwrap_or(0);
                #[cfg(any(debug_assertions, feature = "conflict-detect"))]
                self.conflict
                    .claim(t, worker.is_none(), std::panic::Location::caller());
                // SAFETY: copy `t` belongs to the calling worker alone.
                unsafe { Target::plain(&copies[t].0) }
            }
            Storage::Sequential(buf) => {
                #[cfg(any(debug_assertions, feature = "conflict-detect"))]
                self.conflict.claim(0, true, std::panic::Location::caller());
                // SAFETY: sequential mode is single-threaded by contract.
                unsafe { Target::plain(buf) }
            }
        };
        ScatterAccess {
            ncols: self.ncols,
            target,
            #[cfg(any(debug_assertions, feature = "conflict-detect"))]
            conflict: &self.conflict,
        }
    }

    /// Accumulate `v` into element `(i, col)`: the per-element entry
    /// point, `self.access().add(i, col, v)`. Kernels take one
    /// [`ScatterView::access`] handle per work item instead.
    #[inline]
    #[cfg_attr(any(debug_assertions, feature = "conflict-detect"), track_caller)]
    pub fn add(&self, i: usize, col: usize, v: f64) {
        self.access().add(i, col, v);
    }

    /// Combine all contributions into `out` (added on top of existing
    /// contents), then reset the internal buffers to zero.
    pub fn contribute_into(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.target_len());
        // Epoch boundary: combining releases every ownership claim.
        #[cfg(any(debug_assertions, feature = "conflict-detect"))]
        self.conflict.clear();
        match &mut self.storage {
            Storage::Atomic(a) => {
                for (o, x) in out.iter_mut().zip(a.iter()) {
                    *o += x.load();
                    x.store(0.0);
                }
            }
            Storage::Duplicated(copies) => {
                for c in copies.iter_mut() {
                    let buf = c.0.get_mut();
                    for (o, x) in out.iter_mut().zip(buf.iter_mut()) {
                        *o += *x;
                        *x = 0.0;
                    }
                }
            }
            Storage::Sequential(buf) => {
                let buf = buf.get_mut();
                for (o, x) in out.iter_mut().zip(buf.iter_mut()) {
                    *o += *x;
                    *x = 0.0;
                }
            }
        }
    }

    /// Combine all contributions into a rank-2 view of shape
    /// `[n, ncols]`, respecting the view's layout (a device view is
    /// column-major). Adds on top of existing contents and resets.
    pub fn contribute_into_view(&mut self, out: &mut crate::view::View<f64, 2>) {
        assert_eq!(out.dims(), [self.n, self.ncols]);
        if out.layout() == crate::view::Layout::Right {
            self.contribute_into(out.as_mut_slice());
            return;
        }
        // Layout::Left target: combine into the persistent flat scratch
        // (row-major), then transpose-add. The scratch is reused across
        // calls so steady-state steps touch no allocator.
        let len = self.target_len();
        if len > self.scratch.capacity() {
            self.grow_count += 1;
        }
        let mut flat = std::mem::take(&mut self.scratch);
        flat.clear();
        flat.resize(len, 0.0);
        self.contribute_into(&mut flat);
        for i in 0..self.n {
            for c in 0..self.ncols {
                let v = *out.get([i, c]) + flat[i * self.ncols + c];
                out.set([i, c], v);
            }
        }
        self.scratch = flat;
    }

    /// Distinct-writer overlaps recorded in `Atomic` mode this
    /// process (atomic adds commute, so overlap is legal there — the
    /// count is a contention diagnostic, not an error). Only present
    /// in debug/`conflict-detect` builds; release builds compile the
    /// detector out entirely.
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    pub fn conflict_overlaps(&self) -> u64 {
        self.conflict.overlaps()
    }

    /// Zero all internal buffers without contributing.
    pub fn reset(&mut self) {
        // Epoch boundary, like `contribute_into`.
        #[cfg(any(debug_assertions, feature = "conflict-detect"))]
        self.conflict.clear();
        match &mut self.storage {
            Storage::Atomic(a) => a.iter().for_each(|x| x.store(0.0)),
            Storage::Duplicated(copies) => copies
                .iter_mut()
                .for_each(|c| c.0.get_mut().iter_mut().for_each(|x| *x = 0.0)),
            Storage::Sequential(buf) => buf.get_mut().iter_mut().for_each(|x| *x = 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    // Interpreted execution (the Miri sanitizer lane) is orders of
    // magnitude slower than native; the shrunk counts keep the same
    // CRT structure (multiples of 24) over the same unsafe paths.
    const HAMMER_ITERS: usize = if cfg!(miri) { 2_400 } else { 24_000 };

    fn hammer(mode: ScatterMode) -> Vec<f64> {
        let sv = ScatterView::new(8, 3, mode);
        let run = || {
            (0..HAMMER_ITERS).into_par_iter().for_each(|k| {
                sv.add(k % 8, k % 3, 1.0);
            });
        };
        match mode {
            ScatterMode::Sequential => {
                // Sequential mode: single-threaded contract.
                for k in 0..HAMMER_ITERS {
                    sv.add(k % 8, k % 3, 1.0);
                }
            }
            _ => run(),
        }
        let mut sv = sv;
        let mut out = vec![0.0; 24];
        sv.contribute_into(&mut out);
        out
    }

    #[test]
    fn all_modes_agree() {
        let a = hammer(ScatterMode::Atomic);
        let d = hammer(ScatterMode::Duplicated);
        let s = hammer(ScatterMode::Sequential);
        assert_eq!(a, d);
        assert_eq!(a, s);
        // (i, col) is hit when k ≡ i (mod 8) and k ≡ col (mod 3); by CRT
        // exactly ITERS/24 times for each of the 24 cells.
        assert!(a.iter().all(|&x| x == (HAMMER_ITERS / 24) as f64));
    }

    #[test]
    fn contribute_adds_and_resets() {
        let mut sv = ScatterView::new(2, 1, ScatterMode::Sequential);
        sv.add(0, 0, 2.0);
        sv.add(1, 0, 3.0);
        let mut out = vec![1.0, 1.0];
        sv.contribute_into(&mut out);
        assert_eq!(out, vec![3.0, 4.0]);
        // Buffers were reset: a second contribute adds nothing.
        sv.contribute_into(&mut out);
        assert_eq!(out, vec![3.0, 4.0]);
    }

    #[test]
    fn default_mode_per_space() {
        assert_eq!(
            ScatterMode::default_for(&Space::Serial),
            ScatterMode::Sequential
        );
        assert_eq!(
            ScatterMode::default_for(&Space::Threads),
            ScatterMode::Duplicated
        );
        assert_eq!(
            ScatterMode::default_for(&Space::device(lkk_gpusim::GpuArch::h100())),
            ScatterMode::Atomic
        );
    }

    #[test]
    fn ensure_reshapes_in_place_and_reuses_capacity() {
        for mode in [
            ScatterMode::Atomic,
            ScatterMode::Duplicated,
            ScatterMode::Sequential,
        ] {
            let mut sv = ScatterView::new(8, 3, mode);
            assert_eq!(sv.grow_count(), 0);
            assert!(!sv.ensure(8, 3, mode), "{mode:?}: same shape is a no-op");
            assert!(!sv.ensure(4, 3, mode), "{mode:?}: shrink reuses capacity");
            assert!(!sv.ensure(8, 3, mode), "{mode:?}: regrow within capacity");
            assert_eq!(sv.grow_count(), 0);
            assert!(sv.ensure(32, 3, mode), "{mode:?}: growth reported");
            assert_eq!(sv.grow_count(), 1);
            assert!(!sv.ensure(32, 3, mode), "{mode:?}: steady state reuses");

            // The reshaped target is fully usable and starts zeroed.
            sv.add(31, 2, 1.5);
            let mut out = vec![0.0; 96];
            sv.contribute_into(&mut out);
            assert_eq!(out[95], 1.5);
            assert!(out[..95].iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn contribute_into_left_view_reuses_scratch() {
        use crate::view::{Layout, View2};
        let mut sv = ScatterView::new(4, 3, ScatterMode::Atomic);
        let mut out = View2::<f64>::with_layout("f", [4, 3], Layout::Left);
        sv.add(2, 1, 1.0);
        sv.contribute_into_view(&mut out);
        assert_eq!(sv.grow_count(), 1, "first transpose allocates the scratch");
        for _ in 0..10 {
            sv.add(2, 1, 1.0);
            sv.contribute_into_view(&mut out);
        }
        assert_eq!(
            sv.grow_count(),
            1,
            "steady-state transposes must not allocate"
        );
        assert_eq!(out.at([2, 1]), 11.0);
    }

    /// Stress: many rayon threads hammering *overlapping* rows in
    /// duplicated mode must combine to bit-identical results vs plain
    /// sequential accumulation, across repeated runs. Contributions are
    /// dyadic (multiples of 0.25) so every partial sum is exact and the
    /// result is independent of combine order — any drift here is a
    /// real race, not float noise.
    #[test]
    fn duplicated_stress_bit_identical_vs_sequential() {
        const N: usize = 16;
        // Shrunk under Miri (see HAMMER_ITERS); the aliasing pattern is
        // identical, only the hammer duration differs.
        const ITERS: usize = if cfg!(miri) { 2_400 } else { 120_000 };
        const RUNS: usize = if cfg!(miri) { 2 } else { 5 };
        let row = |k: usize| k % N;
        let col = |k: usize| (k / N) % 3;
        let val = |k: usize| ((k % 13) as f64) * 0.25;

        let mut seq = ScatterView::new(N, 3, ScatterMode::Sequential);
        for k in 0..ITERS {
            seq.add(row(k), col(k), val(k));
        }
        let mut reference = vec![0.0; N * 3];
        seq.contribute_into(&mut reference);
        assert!(reference.iter().any(|&x| x > 0.0));

        for run in 0..RUNS {
            let sv = ScatterView::new(N, 3, ScatterMode::Duplicated);
            (0..ITERS).into_par_iter().for_each(|k| {
                sv.add(row(k), col(k), val(k));
            });
            let mut sv = sv;
            let mut out = vec![0.0; N * 3];
            sv.contribute_into(&mut out);
            for (i, (&a, &b)) in out.iter().zip(reference.iter()).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "run {run}, cell {i}: duplicated {a} != sequential {b}"
                );
            }
        }
    }

    #[test]
    fn reset_clears_pending() {
        let mut sv = ScatterView::new(1, 1, ScatterMode::Atomic);
        sv.add(0, 0, 5.0);
        sv.reset();
        let mut out = vec![0.0];
        sv.contribute_into(&mut out);
        assert_eq!(out[0], 0.0);
    }

    // ------------------------------------------------------------------
    // Write-conflict detector (debug / `conflict-detect` builds only;
    // release builds compile the detector — and these tests — out).
    // ------------------------------------------------------------------

    /// Run `f`, which must panic, and return the panic payload text.
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    fn must_panic(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a detector panic");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// Distinct `scatter_view.rs:<line>` access sites named in `msg`.
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    fn named_sites(msg: &str) -> std::collections::BTreeSet<String> {
        let mut sites = std::collections::BTreeSet::new();
        let mut rest = msg;
        while let Some(pos) = rest.find("scatter_view.rs:") {
            let tail = &rest[pos..];
            let end = tail
                .find(|c: char| c.is_whitespace() || c == ')' || c == ',')
                .unwrap_or(tail.len());
            sites.insert(tail[..end].to_string());
            rest = &tail[end..];
        }
        sites
    }

    /// The two ways to write: the per-element entry point, or a handle.
    /// `#[track_caller]` so the detector names the test's own lines.
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    #[derive(Debug, Clone, Copy)]
    enum Via {
        Add,
        Handle,
    }

    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    impl Via {
        const BOTH: [Via; 2] = [Via::Add, Via::Handle];

        #[track_caller]
        fn write(self, sv: &ScatterView, i: usize, col: usize, v: f64) {
            match self {
                Via::Add => sv.add(i, col, v),
                Via::Handle => sv.access().add(i, col, v),
            }
        }
    }

    /// Seeded race: two plain OS threads (no rayon worker index) both
    /// fall back to duplicated copy 0. The writes are temporally
    /// disjoint — the detector still fires deterministically, naming
    /// both access sites, because two distinct claimants inside one
    /// accumulation epoch are one scheduler reshuffle away from silent
    /// corruption.
    #[test]
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    fn conflict_detector_names_both_sites_on_foreign_overlap() {
        for via in Via::BOTH {
            let sv = ScatterView::new(4, 3, ScatterMode::Duplicated);
            let msg = std::thread::scope(|scope| {
                scope
                    .spawn(|| via.write(&sv, 1, 0, 1.0)) // first access site
                    .join()
                    .expect("first foreign writer must not panic");
                scope
                    .spawn(|| must_panic(|| via.write(&sv, 2, 1, 1.0))) // second access site
                    .join()
                    .unwrap()
            });
            assert!(
                msg.contains("ScatterView write conflict"),
                "{via:?}: unexpected panic message: {msg}"
            );
            let sites = named_sites(&msg);
            assert!(
                sites.len() >= 2,
                "{via:?}: panic must name both access sites, got {sites:?} in: {msg}"
            );
        }
    }

    /// A foreign thread joining an epoch whose copy 0 was already
    /// claimed by the worker pool is flagged on the foreign side.
    #[test]
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    fn conflict_detector_flags_foreign_write_into_pool_epoch() {
        for via in Via::BOTH {
            let sv = ScatterView::new(4, 3, ScatterMode::Duplicated);
            (0..64usize).into_par_iter().for_each(|k| {
                via.write(&sv, k % 4, k % 3, 1.0); // pool claims every copy
            });
            let msg = std::thread::scope(|scope| {
                scope
                    .spawn(|| must_panic(|| via.write(&sv, 0, 0, 1.0)))
                    .join()
                    .unwrap()
            });
            assert!(msg.contains("write conflict"), "{via:?} got: {msg}");
            assert!(msg.contains("worker pool"), "{via:?} got: {msg}");
        }
    }

    /// Sequential mode: a second thread writing in the same epoch is a
    /// contract violation even without temporal overlap.
    #[test]
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    fn conflict_detector_flags_cross_thread_sequential_use() {
        for via in Via::BOTH {
            let sv = ScatterView::new(2, 1, ScatterMode::Sequential);
            std::thread::scope(|scope| {
                scope.spawn(|| via.write(&sv, 0, 0, 1.0)).join().unwrap();
            });
            let msg = must_panic(|| via.write(&sv, 1, 0, 1.0));
            assert!(msg.contains("write conflict"), "{via:?} got: {msg}");
            assert!(named_sites(&msg).len() >= 2, "{via:?} got: {msg}");
        }
    }

    /// Epoch boundaries (contribute/reset) release every claim: the
    /// same cross-thread handoff that panics above is legal once a
    /// boundary separates the writers.
    #[test]
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    fn conflict_detector_epoch_boundary_releases_claims() {
        for via in Via::BOTH {
            let mut sv = ScatterView::new(2, 1, ScatterMode::Sequential);
            std::thread::scope(|scope| {
                let svr = &sv;
                scope
                    .spawn(move || via.write(svr, 0, 0, 1.0))
                    .join()
                    .unwrap();
            });
            sv.reset();
            via.write(&sv, 1, 0, 2.0); // different thread, new epoch: fine
            let mut out = vec![0.0; 2];
            sv.contribute_into(&mut out);
            assert_eq!(out, vec![0.0, 2.0]);
        }
    }

    /// Atomic mode: overlapping distinct writers are legal (adds are
    /// element-atomic) — recorded per add, also through a handle, and
    /// never fatal.
    #[test]
    #[cfg(any(debug_assertions, feature = "conflict-detect"))]
    fn atomic_mode_counts_overlaps_without_panicking() {
        for via in Via::BOTH {
            let sv = ScatterView::new(1, 1, ScatterMode::Atomic);
            std::thread::scope(|scope| {
                scope.spawn(|| via.write(&sv, 0, 0, 1.0)).join().unwrap();
                scope.spawn(|| via.write(&sv, 0, 0, 1.0)).join().unwrap();
            });
            let mut sv = sv;
            assert_eq!(sv.conflict_overlaps(), 1, "{via:?}");
            let mut out = vec![0.0];
            sv.contribute_into(&mut out);
            assert_eq!(out[0], 2.0);
        }
    }

    /// A handle's row form and element form land in the same cells in
    /// every mode, and one handle serves many adds.
    #[test]
    fn handle_add3_matches_elementwise_adds() {
        for mode in [
            ScatterMode::Atomic,
            ScatterMode::Duplicated,
            ScatterMode::Sequential,
        ] {
            let mut rows = ScatterView::new(5, 3, mode);
            let mut cells = ScatterView::new(5, 3, mode);
            {
                let (a, b) = (rows.access(), cells.access());
                for i in [4usize, 0, 4, 2] {
                    let v = [i as f64 + 0.5, -1.25, 3.0];
                    a.add3(i, v);
                    for (k, vk) in v.into_iter().enumerate() {
                        b.add(i, k, vk);
                    }
                }
            }
            let (mut ra, mut rb) = (vec![0.0; 15], vec![0.0; 15]);
            rows.contribute_into(&mut ra);
            cells.contribute_into(&mut rb);
            assert_eq!(ra, rb, "{mode:?}");
            assert_eq!(ra[12..], [9.0, -2.5, 6.0], "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn handle_row_past_the_end_panics() {
        ScatterView::new(4, 3, ScatterMode::Sequential)
            .access()
            .add3(4, [1.0; 3]);
    }

    /// Flat index `usize::MAX`: `idx + 3` would wrap to 2 and pass a
    /// naive end-of-row check.
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn handle_row_whose_end_would_wrap_panics() {
        ScatterView::new(4, 3, ScatterMode::Sequential)
            .access()
            .add3(usize::MAX / 3, [1.0; 3]);
    }
}
