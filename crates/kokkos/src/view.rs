//! Multi-dimensional arrays with run-time data layout.
//!
//! [`View<T, R>`] is the Rust analogue of `Kokkos::View`: a dense
//! `R`-dimensional array whose *layout* — which index is
//! fastest-varying in memory — is chosen at construction.
//!
//! * [`Layout::Right`] (row-major, last index fastest) is the natural
//!   host layout: one atom's neighbor list is contiguous, enabling
//!   caching on CPUs.
//! * [`Layout::Left`] (column-major, first index fastest) interleaves
//!   consecutive atoms' entries, giving coalesced accesses on GPUs.
//!
//! §4.1 of the paper: "the neighbor list for each atom must be
//! contiguous in memory to enable caching [on CPUs], while the neighbor
//! lists of consecutive atoms must be interleaved to achieve performance
//! on GPU architectures. Using 2D Views ... achieves this data layout
//! adjustment by default."

use crate::exec::Space;
use crate::parts::ViewRows;

/// Memory layout of a [`View`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Row-major / C order: last index fastest. Host default.
    Right,
    /// Column-major / Fortran order: first index fastest. Device default.
    Left,
}

impl Layout {
    /// The default layout for an execution space, mirroring Kokkos'
    /// `ExecutionSpace::array_layout`.
    pub fn for_space(space: &Space) -> Layout {
        if space.is_device() {
            Layout::Left
        } else {
            Layout::Right
        }
    }
}

fn strides_for<const R: usize>(dims: [usize; R], layout: Layout) -> [usize; R] {
    let mut strides = [0usize; R];
    match layout {
        Layout::Right => {
            let mut s = 1;
            for k in (0..R).rev() {
                strides[k] = s;
                s *= dims[k].max(1);
            }
        }
        Layout::Left => {
            let mut s = 1;
            for k in 0..R {
                strides[k] = s;
                s *= dims[k].max(1);
            }
        }
    }
    strides
}

/// A dense `R`-dimensional array of `T` with run-time layout.
///
/// ```
/// use lkk_kokkos::{Layout, View2};
/// let mut neigh = View2::<u32>::with_layout("neighbors", [4, 8], Layout::Left);
/// neigh.set([2, 3], 7);
/// assert_eq!(neigh.at([2, 3]), 7);
/// // LayoutLeft interleaves rows: element (2,3) sits at column-major
/// // offset 3*4 + 2.
/// assert_eq!(neigh.as_slice()[3 * 4 + 2], 7);
/// ```
#[derive(Debug, Clone)]
pub struct View<T, const R: usize> {
    label: String,
    dims: [usize; R],
    strides: [usize; R],
    layout: Layout,
    /// At least `dims.product()` elements; longer only after
    /// [`View::realloc_without_initializing`] shrank the extents.
    data: Vec<T>,
}

/// Rank-1 view.
pub type View1<T> = View<T, 1>;
/// Rank-2 view.
pub type View2<T> = View<T, 2>;
/// Rank-3 view.
pub type View3<T> = View<T, 3>;

impl<T: Clone + Default, const R: usize> View<T, R> {
    /// Allocate a zero/default-initialized view in [`Layout::Right`].
    pub fn new(label: impl Into<String>, dims: [usize; R]) -> Self {
        Self::with_layout(label, dims, Layout::Right)
    }

    /// Allocate with an explicit layout.
    pub fn with_layout(label: impl Into<String>, dims: [usize; R], layout: Layout) -> Self {
        let len = dims.iter().product::<usize>();
        View {
            label: label.into(),
            dims,
            strides: strides_for(dims, layout),
            layout,
            data: vec![T::default(); len],
        }
    }

    /// Allocate with the layout preferred by `space` (§4.1's transparent
    /// layout adjustment).
    pub fn for_space(label: impl Into<String>, dims: [usize; R], space: &Space) -> Self {
        Self::with_layout(label, dims, Layout::for_space(space))
    }

    /// Resize, discarding contents (Kokkos `realloc`). Layout is kept.
    ///
    /// The backing `Vec`'s capacity is reused: any resize within
    /// previously reached capacity touches no allocator, which is what
    /// makes persistent neighbor/scatter buffers allocation-free in
    /// steady state (see `docs/performance.md`). Returns `true` when
    /// the resize had to grow the heap allocation (a pool miss),
    /// `false` when existing capacity was reused (a pool hit).
    pub fn realloc(&mut self, dims: [usize; R]) -> bool {
        self.data.clear();
        self.realloc_without_initializing(dims)
    }

    /// [`View::realloc`] without the clear (Kokkos' `WithoutInitializing`):
    /// same extents, strides and return value, but an element holds
    /// whatever an earlier use of the storage left there (a stale value
    /// of `T`, never uninitialised memory) until the caller writes it.
    /// For buffers whose readers are bounded by data written since, such
    /// as neighbor rows read up to `numneigh[i]`: zeroing `[nlocal,
    /// maxneigh]` was 20 MB of memset per rebuild, on one thread.
    pub fn realloc_without_initializing(&mut self, dims: [usize; R]) -> bool {
        let len = dims.iter().product::<usize>();
        self.dims = dims;
        self.strides = strides_for(dims, self.layout);
        let grew = len > self.data.capacity();
        if len > self.data.len() {
            self.data.resize(len, T::default());
        }
        grew
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: T) {
        for x in self.as_mut_slice() {
            *x = v.clone();
        }
    }
}

impl<T, const R: usize> View<T, R> {
    #[inline(always)]
    pub fn offset(&self, idx: [usize; R]) -> usize {
        debug_assert!(
            idx.iter().zip(&self.dims).all(|(i, d)| i < d),
            "view '{}' index {:?} out of bounds {:?}",
            self.label,
            idx,
            self.dims
        );
        let mut o = 0;
        for (ik, sk) in idx.iter().zip(&self.strides) {
            o += ik * sk;
        }
        o
    }

    #[inline(always)]
    pub fn get(&self, idx: [usize; R]) -> &T {
        &self.data[self.offset(idx)]
    }

    #[inline(always)]
    pub fn get_mut(&mut self, idx: [usize; R]) -> &mut T {
        let o = self.offset(idx);
        &mut self.data[o]
    }

    #[inline(always)]
    pub fn set(&mut self, idx: [usize; R], v: T) {
        let o = self.offset(idx);
        self.data[o] = v;
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    pub fn dims(&self) -> [usize; R] {
        self.dims
    }

    pub fn extent(&self, k: usize) -> usize {
        self.dims[k]
    }

    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Stride of dimension `k` in elements (layout-dependent).
    #[inline(always)]
    pub fn stride(&self, k: usize) -> usize {
        self.strides[k]
    }

    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat backing storage (layout-ordered).
    pub fn as_slice(&self) -> &[T] {
        &self.data[..self.len()]
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let len = self.len();
        &mut self.data[..len]
    }

    /// Size of the backing storage in bytes.
    pub fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl<T: Send> View<T, 2> {
    /// Row `i` for work item `i` of a `*_parts` dispatch
    /// ([`crate::parts`]), in either layout.
    pub fn rows_mut(&mut self) -> ViewRows<'_, T> {
        let len = self.len();
        ViewRows::new(&mut self.data[..len], self.dims, self.strides)
    }
}

impl<T: Copy, const R: usize> View<T, R> {
    /// Copy element-wise from a view of identical dimensions (layouts
    /// may differ; this performs the transpose). This is the "deep copy"
    /// used by [`crate::DualView`] host↔device synchronisation.
    pub fn copy_from(&mut self, src: &View<T, R>) {
        assert_eq!(self.dims, src.dims, "deep_copy dims mismatch");
        if self.layout == src.layout {
            self.as_mut_slice().copy_from_slice(src.as_slice());
        } else {
            // Different layouts: walk logical indices.
            let dims = self.dims;
            let total: usize = dims.iter().product();
            let mut idx = [0usize; R];
            for _ in 0..total {
                let o_dst = self.offset(idx);
                let o_src = src.offset(idx);
                self.data[o_dst] = src.data[o_src];
                // Increment logical index, last dim fastest.
                for k in (0..R).rev() {
                    idx[k] += 1;
                    if idx[k] < dims[k] {
                        break;
                    }
                    idx[k] = 0;
                }
            }
        }
    }

    #[inline(always)]
    pub fn at(&self, idx: [usize; R]) -> T {
        self.data[self.offset(idx)]
    }
}

impl<T: Copy> View<T, 2> {
    /// Gather row `i` of an `[n, 3]` view with a single bounds check,
    /// valid for both layouts (contiguous under [`Layout::Right`],
    /// strided by `n` under [`Layout::Left`]). The accessor for
    /// position/force triples: one check, three unchecked reads.
    #[inline(always)]
    pub fn get3(&self, i: usize) -> [T; 3] {
        debug_assert_eq!(self.dims[1], 3, "view '{}': get3 needs [n, 3]", self.label);
        self.triples_unchecked_shape().get(i)
    }

    /// The `[n, 3]` view as a by-value [`Triples`] reader for a kernel's
    /// inner loop. A kernel that also stores (into its row part or a
    /// scatter handle) makes the compiler reload `&View` fields after
    /// every store it cannot prove disjoint from them; the reader is a
    /// `Copy` local, so data pointer and strides stay in registers.
    pub fn triples(&self) -> Triples<'_, T> {
        assert_eq!(
            self.dims[1], 3,
            "view '{}': triples needs [n, 3]",
            self.label
        );
        self.triples_unchecked_shape()
    }

    #[inline(always)]
    fn triples_unchecked_shape(&self) -> Triples<'_, T> {
        Triples {
            data: &self.data,
            s0: self.strides[0],
            s1: self.strides[1],
        }
    }
}

/// Row reader over an `[n, 3]` view of either layout (see
/// [`View::triples`]).
#[derive(Debug, Clone, Copy)]
pub struct Triples<'a, T> {
    data: &'a [T],
    s0: usize,
    s1: usize,
}

impl<T: Copy> Triples<'_, T> {
    /// Row `i`: one bounds check, three unchecked reads.
    #[inline(always)]
    pub fn get(&self, i: usize) -> [T; 3] {
        let o = i * self.s0;
        let last = o + 2 * self.s1;
        assert!(
            last < self.data.len(),
            "triple {i} out of bounds ({} elements, strides [{}, {}])",
            self.data.len(),
            self.s0,
            self.s1
        );
        // SAFETY: `o <= o + s1 <= last`, and `last < len` was just checked.
        unsafe {
            [
                *self.data.get_unchecked(o),
                *self.data.get_unchecked(o + self.s1),
                *self.data.get_unchecked(last),
            ]
        }
    }
}

impl<T, const R: usize> std::ops::Index<[usize; R]> for View<T, R> {
    type Output = T;
    #[inline(always)]
    fn index(&self, idx: [usize; R]) -> &T {
        self.get(idx)
    }
}

impl<T, const R: usize> std::ops::IndexMut<[usize; R]> for View<T, R> {
    #[inline(always)]
    fn index_mut(&mut self, idx: [usize; R]) -> &mut T {
        self.get_mut(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_right_is_row_major() {
        let mut v = View2::<f64>::new("a", [2, 3]);
        v.set([0, 0], 1.0);
        v.set([0, 2], 3.0);
        v.set([1, 0], 4.0);
        assert_eq!(v.as_slice(), &[1.0, 0.0, 3.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn layout_left_is_col_major() {
        let mut v = View2::<f64>::with_layout("a", [2, 3], Layout::Left);
        v.set([0, 0], 1.0);
        v.set([0, 2], 3.0);
        v.set([1, 0], 4.0);
        assert_eq!(v.as_slice(), &[1.0, 4.0, 0.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn copy_across_layouts_transposes() {
        let mut right = View2::<f64>::new("r", [3, 4]);
        for i in 0..3 {
            for j in 0..4 {
                right.set([i, j], (10 * i + j) as f64);
            }
        }
        let mut left = View2::<f64>::with_layout("l", [3, 4], Layout::Left);
        left.copy_from(&right);
        for i in 0..3 {
            for j in 0..4 {
                assert_eq!(left.at([i, j]), (10 * i + j) as f64);
            }
        }
        // And back.
        let mut right2 = View2::<f64>::new("r2", [3, 4]);
        right2.copy_from(&left);
        assert_eq!(right2.as_slice(), right.as_slice());
    }

    #[test]
    fn rank3_indexing_round_trip() {
        let mut v = View3::<i64>::new("t", [2, 3, 4]);
        let mut c = 0;
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    v.set([i, j, k], c);
                    c += 1;
                }
            }
        }
        let mut c = 0;
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(v.at([i, j, k]), c);
                    c += 1;
                }
            }
        }
    }

    #[test]
    fn realloc_keeps_layout_and_zeroes() {
        let mut v = View1::<f64>::with_layout("x", [4], Layout::Left);
        v.fill(7.0);
        v.realloc([8]);
        assert_eq!(v.len(), 8);
        assert_eq!(v.layout(), Layout::Left);
        assert!(v.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_checked_in_debug() {
        let v = View1::<f64>::new("x", [3]);
        let _ = v.at([3]);
    }

    #[test]
    fn realloc_reports_capacity_reuse() {
        let mut v = View2::<u32>::with_layout("n", [8, 16], Layout::Left);
        // Shrinking and re-growing within reached capacity is a hit.
        assert!(!v.realloc([4, 16]), "shrink must reuse capacity");
        assert!(
            !v.realloc([8, 16]),
            "regrow to old size must reuse capacity"
        );
        // Growing beyond every previous size must report a fresh alloc.
        assert!(v.realloc([8, 64]), "growth past capacity must report miss");
        assert!(!v.realloc([8, 64]), "steady state must reuse capacity");
    }

    #[test]
    fn realloc_without_initializing_keeps_storage_and_bounds_the_extent() {
        let mut v = View2::<u32>::with_layout("n", [4, 6], Layout::Left);
        v.fill(7);
        // Shrinking re-strides over the same storage: no clear, and the
        // flat accessors cover the logical extent only.
        assert!(!v.realloc_without_initializing([2, 3]));
        assert_eq!((v.len(), v.bytes()), (6, 24));
        assert_eq!(v.as_slice(), &[7; 6]);
        assert_eq!(v.as_mut_slice().len(), 6);
        assert_eq!((v.stride(0), v.stride(1)), (1, 2));
        v.fill(9);
        // Growing back within the storage exposes stale values of `T`
        // (here both generations), never a reallocation.
        assert!(!v.realloc_without_initializing([4, 6]));
        let (nines, sevens): (Vec<u32>, Vec<u32>) = v.as_slice().iter().partition(|&&x| x == 9);
        assert_eq!((nines.len(), sevens.len()), (6, 18));
        // Past it, the growth is reported exactly as `realloc` reports it.
        assert!(v.realloc_without_initializing([8, 64]));
        assert!(!v.realloc_without_initializing([8, 64]));
        assert_eq!(v.len(), 512);
        // `realloc` still clears, whatever came before.
        v.realloc([4, 6]);
        assert_eq!(v.as_slice(), &[0; 24]);
    }

    #[test]
    fn get3_matches_at_for_both_layouts() {
        for layout in [Layout::Right, Layout::Left] {
            let mut v = View2::<f64>::with_layout("x", [5, 3], layout);
            for i in 0..5 {
                for k in 0..3 {
                    v.set([i, k], (100 * i + k) as f64);
                }
            }
            for i in 0..5 {
                let [a, b, c] = v.get3(i);
                assert_eq!([a, b, c], [v.at([i, 0]), v.at([i, 1]), v.at([i, 2])]);
            }
        }
    }

    #[test]
    #[should_panic]
    fn get3_bounds_checked_in_release() {
        let v = View2::<f64>::with_layout("x", [4, 3], Layout::Left);
        let _ = v.get3(4);
    }

    #[test]
    fn bytes_accounting() {
        let v = View2::<f64>::new("x", [10, 3]);
        assert_eq!(v.bytes(), 240);
    }
}
