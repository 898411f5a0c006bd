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
/// Not `Sync`: a dispatch closure cannot capture one, so a kernel writes
/// through [`parts::scatter`](crate::parts::scatter), which hands each
/// work item the handle of the thread that runs it. One thread at a
/// time holds the view otherwise, which is what makes its unsynchronised
/// modes sound.
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
}

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

/// The calling thread's write handle on a [`ScatterView`], from
/// [`ScatterView::access`] or a [`parts::scatter`](crate::parts::scatter)
/// part. It cannot be sent to another thread (the raw pointer makes it
/// `!Send` and `!Sync`, which the compile-time assertion below pins).
pub struct ScatterAccess<'a> {
    ncols: usize,
    target: Target<'a>,
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
                    // thread's copy (see `ScatterView::access`), alive and
                    // unresized for `'a` because resizing needs
                    // `&mut ScatterView`; `idx + N <= len` was just checked.
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
        ScatterView {
            n,
            ncols,
            storage,
            scratch: Vec::new(),
            grow_count: 0,
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

    /// A handle on the calling thread's share of the target — Kokkos'
    /// `auto a = sv.access(); a(j, k) += v`. Storage mode and the
    /// thread's copy are resolved here, once, so a kernel pays only the
    /// bounds check and the add per contribution.
    ///
    /// Sound in every mode because at most one thread reaches the view
    /// at a time — except through [`parts::scatter`](crate::parts::scatter),
    /// whose argument covers its launch: `Atomic` is race-free by
    /// construction; `Duplicated` hands out the copy of the running
    /// chunk's worker index (copy 0 outside the pool); `Sequential`
    /// hands out its one buffer.
    #[inline]
    pub fn access(&self) -> ScatterAccess<'_> {
        let target = match &self.storage {
            Storage::Atomic(a) => Target::Atomic(a),
            Storage::Duplicated(copies) => {
                // Index `t` is stable for the duration of a dispatch
                // closure; a thread outside the pool takes copy 0.
                let t = rayon::current_thread_index().unwrap_or(0);
                // SAFETY: copy `t` belongs to the calling thread alone.
                unsafe { Target::plain(&copies[t].0) }
            }
            // SAFETY: only the calling thread writes the buffer.
            Storage::Sequential(buf) => unsafe { Target::plain(buf) },
        };
        ScatterAccess {
            ncols: self.ncols,
            target,
        }
    }

    /// Accumulate `v` into element `(i, col)`: `self.access().add(i,
    /// col, v)`, for code outside a dispatch. A dispatch closure cannot
    /// reach the view (it is not `Sync`); a kernel takes its handle from
    /// [`parts::scatter`](crate::parts::scatter).
    #[inline]
    pub fn add(&self, i: usize, col: usize, v: f64) {
        self.access().add(i, col, v);
    }

    /// Combine all contributions into `out` (added on top of existing
    /// contents), then reset the internal buffers to zero.
    pub fn contribute_into(&mut self, out: &mut [f64]) {
        assert_eq!(out.len(), self.target_len());
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

    /// Zero all internal buffers without contributing.
    pub fn reset(&mut self) {
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
    use crate::exec::PAR_THRESHOLD;
    use crate::parts;
    use lkk_gpusim::GpuArch;

    const MODES: [ScatterMode; 3] = [
        ScatterMode::Atomic,
        ScatterMode::Duplicated,
        ScatterMode::Sequential,
    ];

    /// Item `k`'s adds into an `8 × 3` target: one element and one row,
    /// dyadic values so that every order of summation is exact.
    fn adds(k: usize) -> [(usize, [f64; 3]); 2] {
        let v = (k % 13) as f64 * 0.25;
        let mut e = [0.0; 3];
        e[k % 3] = v;
        [(k % 8, e), ((k * 5 + 1) % 8, [v, -0.5, 1.0])]
    }

    /// `parts::scatter` in every mode on every space, on both sides of
    /// the fork threshold: `contribute_into` lands the sums of the
    /// sequential `add` loop, to the bit. The one refusal is a
    /// `Sequential` view in a launch that forks, which panics before a
    /// second thread writes it.
    #[test]
    fn scatter_parts_sum_as_the_sequential_add_loop() {
        let spaces = [
            Space::Serial,
            Space::Threads,
            Space::device(GpuArch::h100()),
        ];
        for n in [PAR_THRESHOLD - 5, PAR_THRESHOLD + 613] {
            let mut seq = ScatterView::new(8, 3, ScatterMode::Sequential);
            for k in 0..n {
                for (i, v) in adds(k) {
                    for (col, vc) in v.into_iter().enumerate() {
                        seq.add(i, col, vc);
                    }
                }
            }
            let mut want = vec![0.0; 24];
            seq.contribute_into(&mut want);
            for space in &spaces {
                for mode in MODES {
                    let mut sv = ScatterView::new(8, 3, mode);
                    let launch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let out = parts::scatter(&mut sv);
                        space.parallel_for_parts("scatter", n, out, |k, a| {
                            for (i, v) in adds(k) {
                                a.add3(i, v);
                            }
                        })
                    }));
                    let case = format!("{mode:?} on {space:?}, n = {n}");
                    if let Err(panic) = launch {
                        let forked = !matches!(space, Space::Serial) && n >= PAR_THRESHOLD;
                        assert!(mode == ScatterMode::Sequential && forked, "{case}");
                        let msg = panic.downcast_ref::<&str>().copied().unwrap_or_default();
                        assert!(msg.contains("two threads"), "{case}: {msg}");
                        continue;
                    }
                    let mut got = vec![0.0; 24];
                    sv.contribute_into(&mut got);
                    assert_eq!(got, want, "{case}");
                }
            }
        }
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
        for mode in MODES {
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

    /// Stress: every worker hammering *overlapping* rows in
    /// duplicated mode must combine to bit-identical results vs plain
    /// sequential accumulation, across repeated runs. Contributions are
    /// dyadic (multiples of 0.25) so every partial sum is exact and the
    /// result is independent of combine order — any drift here is a
    /// real race, not float noise.
    #[test]
    fn duplicated_stress_bit_identical_vs_sequential() {
        const N: usize = 16;
        // Shrunk under Miri, which interprets orders of magnitude slower;
        // the aliasing pattern is identical, only the duration differs.
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
            let mut sv = ScatterView::new(N, 3, ScatterMode::Duplicated);
            let out = parts::scatter(&mut sv);
            Space::Threads.parallel_for_parts("stress", ITERS, out, |k, a| {
                a.add(row(k), col(k), val(k));
            });
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

    /// A handle's row form and element form land in the same cells in
    /// every mode, and one handle serves many adds.
    #[test]
    fn handle_add3_matches_elementwise_adds() {
        for mode in MODES {
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
