//! Disjoint parts of an exclusively borrowed output, one per work item.
//!
//! §4.1's write discipline: with a full neighbor list each work item
//! writes only its own row, and only true conflicts go through a
//! [`crate::ScatterView`]. The `*_parts` dispatches of [`crate::Space`]
//! state the first half in types: they take an output by `&mut`, cut it
//! into one part per work item and hand item `i` its part alone. The
//! kinds:
//!
//! * [`elements`]: element `i` of a slice;
//! * [`rows`]: row `i` of a slice of fixed-width rows;
//! * [`View::rows_mut`](crate::View::rows_mut): row `i` of a rank-2 view
//!   in either layout, as a [`RowMut`] (strided on `Layout::Left`);
//! * [`csr`]: `offsets[i]..offsets[i + 1]` of a slice;
//! * [`leader_blocks`]: for every `g`-th item the `g` rows from its own,
//!   for the others nothing;
//! * [`scatter`]: a [`ScatterView`]'s write handle, taken on the thread
//!   that runs item `i` — §4.1's second half, the true conflicts;
//! * tuples of up to four parts (nest them for more).
//!
//! Whatever a kind has to check (extent, CSR offsets monotone and in
//! bounds) it checks once per launch, before the dispatch, in release
//! builds too; cutting a part is then address arithmetic. Writes inside
//! a part are bounds-checked like any slice write.
//!
//! Soundness rests on two facts: the parts of items `0..n` are pairwise
//! disjoint, and the wrapped dispatch calls its closure exactly once per
//! item (the rayon shim runs every chunk of its chunk map once), so no
//! part is ever cut twice. [`scatter`]'s parts all write one view, each
//! through storage its thread alone writes (see [`Scatter`]).

use crate::scatter_view::{ScatterAccess, ScatterMode, ScatterView};
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// An output split into one part per work item.
pub trait Parts: Sync {
    /// What work item `i` gets.
    type Part;

    /// Panic unless items `0..n` all have parts.
    fn check(&self, n: usize);

    /// Item `i`'s part.
    ///
    /// # Safety
    /// [`Parts::check`] passed for some `n > i`, and no other part `i`
    /// of `self` is alive.
    unsafe fn part(&self, i: usize) -> Self::Part;
}

/// The exclusive borrow every kind cuts its parts from, held as a
/// pointer so that parts can be cut through a shared reference.
struct Raw<'a, T> {
    ptr: *mut T,
    len: usize,
    _borrow: PhantomData<&'a mut [T]>,
}

// SAFETY: a `Raw` is a `&mut [T]` that only hands out pairwise disjoint
// pieces (see `Parts::part`), and pieces of a `&mut [T]` may go to other
// threads whenever `T: Send`.
unsafe impl<T: Send> Sync for Raw<'_, T> {}

impl<'a, T> Raw<'a, T> {
    fn new(s: &'a mut [T]) -> Self {
        let (ptr, len) = (s.as_mut_ptr(), s.len());
        let _borrow = PhantomData;
        Raw { ptr, len, _borrow }
    }

    /// Panic unless `n` rows of `width` fit.
    fn holds(&self, n: usize, width: usize) {
        let fits = n.checked_mul(width).is_some_and(|need| need <= self.len);
        assert!(fits, "{n} parts of {width} do not fit in {}", self.len);
    }

    /// The `len` elements from `lo`.
    ///
    /// # Safety
    /// `lo + len <= self.len`, and no live part overlaps them.
    unsafe fn slice(&self, lo: usize, len: usize) -> &'a mut [T] {
        debug_assert!(lo + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), len)
    }
}

/// Parts from [`elements`].
pub struct Elements<'a, T>(Raw<'a, T>);

/// Element `i` of `s` for item `i`.
pub fn elements<T: Send>(s: &mut [T]) -> Elements<'_, T> {
    Elements(Raw::new(s))
}

impl<'a, T: Send> Parts for Elements<'a, T> {
    type Part = &'a mut T;

    fn check(&self, n: usize) {
        self.0.holds(n, 1);
    }

    unsafe fn part(&self, i: usize) -> &'a mut T {
        &mut *self.0.ptr.add(i)
    }
}

/// Parts from [`rows`]: the storage and the row width.
pub struct Rows<'a, T>(Raw<'a, T>, usize);

/// Elements `i * width..(i + 1) * width` of `s` for item `i`.
pub fn rows<T: Send>(s: &mut [T], width: usize) -> Rows<'_, T> {
    Rows(Raw::new(s), width)
}

impl<'a, T: Send> Parts for Rows<'a, T> {
    type Part = &'a mut [T];

    fn check(&self, n: usize) {
        self.0.holds(n, self.1);
    }

    unsafe fn part(&self, i: usize) -> &'a mut [T] {
        self.0.slice(i * self.1, self.1)
    }
}

/// Parts from [`csr`]: the storage and the offsets.
pub struct Csr<'a, T>(Raw<'a, T>, &'a [usize]);

/// Elements `offsets[i]..offsets[i + 1]` of `s` for item `i`. A launch
/// over `n` items checks `offsets[..=n]` once: monotone, and ending
/// inside `s`.
pub fn csr<'a, T: Send>(s: &'a mut [T], offsets: &'a [usize]) -> Csr<'a, T> {
    Csr(Raw::new(s), offsets)
}

impl<'a, T: Send> Parts for Csr<'a, T> {
    type Part = &'a mut [T];

    fn check(&self, n: usize) {
        let (offsets, len) = (&self.1[..=n], self.0.len);
        let ok = offsets.is_sorted() && offsets[n] <= len;
        assert!(ok, "CSR offsets must be monotone and end inside {len}");
    }

    unsafe fn part(&self, i: usize) -> &'a mut [T] {
        let (lo, hi) = (self.1[i], self.1[i + 1]);
        self.0.slice(lo, hi - lo)
    }
}

/// Parts from [`leader_blocks`]: the rows and the block length.
pub struct LeaderBlocks<'a, T>(Rows<'a, T>, usize);

/// Rows of `width` elements in blocks of `g`: item `i` with `i % g == 0`
/// leads rows `i..i + g` (clipped at the end of `s`) and gets them all,
/// every other item gets `None`.
pub fn leader_blocks<T: Send>(s: &mut [T], width: usize, g: usize) -> LeaderBlocks<'_, T> {
    assert!(width > 0 && g > 0, "leader blocks need rows and blocks");
    LeaderBlocks(rows(s, width), g)
}

impl<'a, T: Send> Parts for LeaderBlocks<'a, T> {
    type Part = Option<&'a mut [T]>;

    fn check(&self, n: usize) {
        self.0.check(n);
    }

    unsafe fn part(&self, i: usize) -> Option<&'a mut [T]> {
        let (Rows(raw, width), g) = (&self.0, self.1);
        let end = (i + g).min(raw.len / width);
        i.is_multiple_of(g)
            .then(|| raw.slice(i * width, (end - i) * width))
    }
}

/// Parts from [`scatter`]: the view, and for a `Sequential` one the
/// thread that may write it.
pub struct Scatter<'a> {
    view: &'a ScatterView,
    owner: Option<usize>,
}

thread_local! {
    /// Its address tells threads apart.
    static THREAD_MARK: u8 = const { 0 };
}

fn this_thread() -> usize {
    THREAD_MARK.with(|mark| std::ptr::from_ref(mark) as usize)
}

/// `view`'s write handle for every item, [`ScatterView::access`] taken
/// on the thread that runs the item: Kokkos' `auto a = sv.access()` at
/// the top of a kernel. A `ScatterView` is not `Sync`, so a dispatch
/// closure cannot capture one; this is how a kernel writes to it.
///
/// ```
/// use lkk_kokkos::{parts, ScatterView, Space};
/// let space = Space::Threads;
/// let mut forces = ScatterView::for_space(8, 3, &space);
/// space.parallel_for_parts("Scatter", 8, parts::scatter(&mut forces), |i, f| {
///     f.add3((i + 1) % 8, [1.0, 0.0, -1.0]);
/// });
/// let mut out = vec![0.0; 24];
/// forces.contribute_into(&mut out);
/// assert_eq!(out[..3], [1.0, 0.0, -1.0]);
/// ```
///
/// Calling `add` on a captured view, the per-element scatter that
/// resolves the storage on every call, does not compile:
///
/// ```compile_fail,E0277
/// use lkk_kokkos::{ScatterView, Space};
/// let space = Space::Threads;
/// let forces = ScatterView::for_space(8, 3, &space);
/// space.parallel_for("Scatter", 8, |i| forces.add((i + 1) % 8, 0, 1.0));
/// ```
///
/// A `Sequential` view has one buffer: every part of it must be cut on
/// the thread that called `scatter`, so a launch that forks over one
/// panics on the first other thread (as it would race otherwise).
pub fn scatter(view: &mut ScatterView) -> Scatter<'_> {
    let owner = (view.mode() == ScatterMode::Sequential).then(this_thread);
    Scatter { view, owner }
}

// SAFETY: the exclusive borrow leaves the launch the only user of the
// view, and each part writes storage no other thread writes meanwhile:
// `Atomic` cells are shared atomically; a `Duplicated` part is the copy
// of the running chunk's worker index, and the chunks that run at once
// have distinct indices; a `Sequential` part is cut only on its owner
// thread (checked in `part`).
unsafe impl Sync for Scatter<'_> {}

impl<'a> Parts for Scatter<'a> {
    type Part = ScatterAccess<'a>;

    fn check(&self, _n: usize) {}

    #[inline]
    unsafe fn part(&self, _i: usize) -> ScatterAccess<'a> {
        if let Some(owner) = self.owner {
            let here = this_thread() == owner;
            assert!(here, "a Sequential ScatterView written from two threads");
        }
        self.view.access()
    }
}

/// Parts from [`View::rows_mut`](crate::View::rows_mut): the storage,
/// `[rows, width]` and the view's strides.
pub struct ViewRows<'a, T>(Raw<'a, T>, [usize; 2], [usize; 2]);

impl<'a, T> ViewRows<'a, T> {
    /// The `[rows, width]` view stored in `data` with `strides`, which
    /// must put every `(i, k)` at a distinct offset inside `data` (what
    /// both layouts do).
    pub(crate) fn new(data: &'a mut [T], dims: [usize; 2], strides: [usize; 2]) -> Self {
        ViewRows(Raw::new(data), dims, strides)
    }
}

impl<'a, T: Send> Parts for ViewRows<'a, T> {
    type Part = RowMut<'a, T>;

    fn check(&self, n: usize) {
        let rows = self.1[0];
        assert!(n <= rows, "{n} parts of a view of {rows} rows");
    }

    unsafe fn part(&self, i: usize) -> RowMut<'a, T> {
        let ([_, len], [s0, stride]) = (self.1, self.2);
        let (ptr, _borrow) = (self.0.ptr.add(i * s0), PhantomData);
        RowMut {
            ptr,
            stride,
            len,
            _borrow,
        }
    }
}

/// One row of a rank-2 view, exclusively borrowed: contiguous on
/// `Layout::Right`, every `rows`-th element on `Layout::Left`. Indexing
/// past the row's end panics, in release builds too.
pub struct RowMut<'a, T> {
    ptr: *mut T,
    stride: usize,
    len: usize,
    _borrow: PhantomData<&'a mut T>,
}

impl<T> RowMut<'_, T> {
    /// Element `k`, or `None` past the end of the row.
    #[inline(always)]
    pub fn get_mut(&mut self, k: usize) -> Option<&mut T> {
        // SAFETY: for `k < len`, `ptr + k * stride` is element `k` of this
        // row (see `ViewRows::new`), which no other part reaches, and
        // `&mut self` keeps the reference unique.
        (k < self.len).then(|| unsafe { &mut *self.ptr.add(k * self.stride) })
    }
}

impl<T> Index<usize> for RowMut<'_, T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, k: usize) -> &T {
        let len = self.len;
        assert!(k < len, "index {k} past the end of a row of {len}");
        // SAFETY: as in `get_mut`, shared for the life of `&self`.
        unsafe { &*self.ptr.add(k * self.stride) }
    }
}

impl<T> IndexMut<usize> for RowMut<'_, T> {
    #[inline(always)]
    fn index_mut(&mut self, k: usize) -> &mut T {
        let len = self.len;
        self.get_mut(k)
            .unwrap_or_else(|| panic!("index {k} past the end of a row of {len}"))
    }
}

macro_rules! tuple_parts {
    ($($p:ident $k:tt),+) => {
        impl<$($p: Parts),+> Parts for ($($p,)+) {
            type Part = ($($p::Part,)+);

            fn check(&self, n: usize) {
                $(self.$k.check(n);)+
            }

            unsafe fn part(&self, i: usize) -> Self::Part {
                ($(self.$k.part(i),)+)
            }
        }
    };
}

tuple_parts!(A 0, B 1);
tuple_parts!(A 0, B 1, C 2);
tuple_parts!(A 0, B 1, C 2, D 3);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::PAR_THRESHOLD;
    use crate::{Layout, Space, TeamPolicy, View2};
    use lkk_gpusim::GpuArch;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn spaces() -> [Space; 3] {
        [
            Space::Serial,
            Space::Threads,
            Space::device(GpuArch::h100()),
        ]
    }

    /// Launch sizes on both sides of the fork threshold.
    const SIZES: [usize; 2] = [PAR_THRESHOLD - 5, PAR_THRESHOLD + 613];

    /// `offsets` of rows of length `i % 4`.
    fn ragged(n: usize) -> Vec<usize> {
        let mut offsets = vec![0];
        for i in 0..n {
            offsets.push(offsets[i] + i % 4);
        }
        offsets
    }

    /// Elements through `parallel_for_parts`, rows through
    /// `parallel_reduce_parts`, view rows (both layouts) through
    /// `parallel_for_team_parts`: every item sees exactly its part, and
    /// what lies past the launch stays untouched.
    #[test]
    fn every_item_sees_exactly_its_elements_rows_and_view_rows() {
        for space in spaces() {
            for n in SIZES {
                let mut v = vec![0usize; n + 3];
                space.parallel_for_parts("elements", n, elements(&mut v), |i, e| *e = i + 1);
                assert!(v[..n].iter().enumerate().all(|(i, &e)| e == i + 1));
                assert_eq!(v[n..], [0; 3]);

                let mut v = vec![usize::MAX; 3 * n];
                let seen = space.parallel_reduce_parts(
                    "rows",
                    n,
                    rows(&mut v, 3),
                    0,
                    |i, row| {
                        assert_eq!(row.len(), 3);
                        for (k, x) in row.iter_mut().enumerate() {
                            *x = 3 * i + k;
                        }
                        row.len()
                    },
                    |a, b| a + b,
                );
                assert_eq!(seen, 3 * n);
                assert!(v.iter().enumerate().all(|(j, &x)| x == j));

                for layout in [Layout::Right, Layout::Left] {
                    let mut view = View2::<usize>::with_layout("v", [n + 1, 3], layout);
                    let policy = TeamPolicy::new(n, 4);
                    space.parallel_for_team_parts("view", policy, view.rows_mut(), |t, mut row| {
                        let i = t.league_rank();
                        for k in 0..3 {
                            row[k] = 10 * i + k + 1;
                        }
                        assert!(row.get_mut(3).is_none());
                    });
                    for i in 0..=n {
                        let want = |k| if i < n { 10 * i + k + 1 } else { 0 };
                        assert_eq!(view.get3(i), [want(0), want(1), want(2)], "{layout:?}");
                    }
                }
            }
        }
    }

    /// CSR rows and leader blocks, cut together as one tuple.
    #[test]
    fn every_item_sees_exactly_its_csr_row_and_leader_block() {
        const G: usize = 8;
        for space in spaces() {
            for n in SIZES {
                let offsets = ragged(n);
                let mut ragged_rows = vec![usize::MAX; offsets[n]];
                let mut blocks = vec![usize::MAX; 2 * n];
                let leaders = AtomicUsize::new(0);
                let out = (
                    csr(&mut ragged_rows, &offsets),
                    leader_blocks(&mut blocks, 2, G),
                );
                space.parallel_for_parts("csr+blocks", n, out, |i, (row, block)| {
                    assert_eq!(row.len(), i % 4);
                    row.fill(i);
                    assert_eq!(block.is_some(), i.is_multiple_of(G));
                    if let Some(block) = block {
                        assert_eq!(block.len(), 2 * G.min(n - i));
                        block.fill(i);
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                });
                for i in 0..n {
                    assert!(ragged_rows[offsets[i]..offsets[i + 1]]
                        .iter()
                        .all(|&x| x == i));
                }
                assert!(blocks.iter().enumerate().all(|(j, &x)| x == j / 2 / G * G));
                assert_eq!(leaders.into_inner(), n.div_ceil(G));
            }
        }
    }

    /// The shim's first chunk boundary falls inside a block (2 662 items
    /// on 2 threads: chunk 0 is 0..1 331, the block led by 1 328 covers
    /// 1 328..1 336): the leader writes the whole block from chunk 0,
    /// while the block's other items run in chunk 1 and get nothing.
    #[test]
    fn a_leader_block_straddles_the_chunk_boundary() {
        const G: usize = 8;
        let threads = rayon::current_num_threads();
        if threads < 2 {
            return; // one chunk: no boundary to straddle
        }
        let n = (2662usize..)
            .find(|n| !n.div_ceil(threads).is_multiple_of(G))
            .unwrap();
        let boundary = n.div_ceil(threads);
        let leader = boundary / G * G;
        for space in [Space::Threads, Space::device(GpuArch::h100())] {
            let mut y = vec![usize::MAX; n];
            let chunk_of: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(9)).collect();
            space.parallel_for_parts("straddle", n, leader_blocks(&mut y, 1, G), |i, block| {
                chunk_of[i].store(rayon::current_thread_index().unwrap(), Ordering::Relaxed);
                if let Some(block) = block {
                    block.fill(i);
                }
            });
            let chunk = |i: usize| chunk_of[i].load(Ordering::Relaxed);
            assert_eq!((chunk(leader), chunk(boundary)), (0, 1));
            assert_eq!(y[leader..leader + G], [leader; G]);
        }
    }

    #[test]
    fn csr_offsets_that_are_not_monotone_are_rejected_before_dispatch() {
        for offsets in [[0, 2, 1, 3], [0, 1, 2, 9]] {
            let space = Space::device(GpuArch::h100());
            let ran = AtomicBool::new(false);
            let mut v = vec![0u8; 4];
            let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                space.parallel_for_parts("bad", 3, csr(&mut v, &offsets), |_, _| {
                    ran.store(true, Ordering::Relaxed)
                })
            }));
            let msg = *rejected.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.contains("monotone"), "{msg}");
            assert!(!ran.into_inner());
            assert_eq!(space.device_ctx().unwrap().log.len(), 0, "nothing launched");
        }
    }

    /// A `Sequential` view's part cut on a thread other than the one
    /// that called `scatter` panics instead of racing the owner.
    #[test]
    fn a_sequential_scatter_part_on_another_thread_panics() {
        let mut sv = ScatterView::new(2, 1, ScatterMode::Sequential);
        let out = scatter(&mut sv);
        // SAFETY: `check` has nothing to check, and parts 0 and 1 are cut
        // once each.
        unsafe { out.part(0) }.add(0, 0, 1.0);
        let there = std::thread::scope(|s| {
            // SAFETY: as above.
            s.spawn(|| unsafe { out.part(1) }.add(1, 0, 1.0)).join()
        });
        let msg = *there.unwrap_err().downcast::<&str>().unwrap();
        assert!(msg.contains("two threads"), "{msg}");
        let mut sums = vec![0.0; 2];
        sv.contribute_into(&mut sums);
        assert_eq!(sums, [1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn a_launch_longer_than_its_output_is_rejected() {
        let mut v = vec![0.0f64; 10];
        Space::Serial.parallel_for_parts("long", 4, rows(&mut v, 3), |_, _| {});
    }

    /// One past the end of a view row, from the last item (a worker's
    /// chunk on a forked launch): a panic, also in release builds.
    #[test]
    #[should_panic(expected = "index 3 past the end of a row of 3")]
    fn a_write_one_past_a_view_row_panics() {
        let n = PAR_THRESHOLD + 1;
        let mut f = View2::<f64>::with_layout("f", [n, 3], Layout::Left);
        Space::Threads.parallel_for_parts("past", n, f.rows_mut(), |i, mut row| {
            row[if i == n - 1 { 3 } else { 2 }] = 1.0;
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_write_one_past_a_slice_row_panics() {
        let n = PAR_THRESHOLD + 1;
        let mut v = vec![0.0f64; 3 * n + 1];
        Space::Threads.parallel_for_parts("past", n, rows(&mut v, 3), |i, row| {
            row[if i == n - 1 { 3 } else { 0 }] = 1.0;
        });
    }
}
