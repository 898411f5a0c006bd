//! Minimal vendored stand-in for the `rayon` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of the rayon API it actually uses:
//! `into_par_iter()` over ranges and vectors, `par_chunks` on slices,
//! `for_each` / `for_each_init` / `map` / `fold` / `reduce` / `zip` /
//! `collect`, plus `current_num_threads` / `current_thread_index`.
//!
//! Execution model: each parallel call splits its items into at most
//! `current_num_threads()` contiguous chunks and runs one chunk per
//! scoped OS thread (`std::thread::scope`). Chunk boundaries are a pure
//! function of item count and thread count, and per-chunk iteration is
//! in index order, so fold/reduce results are deterministic for a fixed
//! thread count. Setting `LKK_SEQUENTIAL=1` at process start collapses
//! the pool to one worker for bit-stable runs (the perf-smoke harness
//! additionally forces sequential dispatch inside `lkk-kokkos`).

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParIter, ParRange, ParallelSlice};
}

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads parallel calls may use.
#[inline]
pub fn current_num_threads() -> usize {
    match NUM_THREADS.load(Ordering::Relaxed) {
        0 => init_num_threads(),
        cached => cached,
    }
}

#[cold]
fn init_num_threads() -> usize {
    let n = if std::env::var_os("LKK_SEQUENTIAL").is_some_and(|v| v == "1") {
        1
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    NUM_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Index of the current worker inside a parallel call, if any.
#[inline]
pub fn current_thread_index() -> Option<usize> {
    THREAD_INDEX.with(|t| t.get())
}

fn chunk_len(n: usize) -> (usize, usize) {
    let workers = current_num_threads().min(n).max(1);
    (workers, n.div_ceil(workers))
}

/// Run `run(worker, start..end)` for disjoint chunks covering `0..n`.
fn run_chunked<F: Fn(usize, Range<usize>) + Sync>(n: usize, run: F) {
    if n == 0 {
        return;
    }
    let (workers, chunk) = chunk_len(n);
    if workers == 1 {
        let prev = THREAD_INDEX.with(|t| t.replace(Some(0)));
        run(0, 0..n);
        THREAD_INDEX.with(|t| t.set(prev));
        return;
    }
    std::thread::scope(|scope| {
        for w in 0..workers {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let run = &run;
            scope.spawn(move || {
                THREAD_INDEX.with(|t| t.set(Some(w)));
                run(w, lo..hi);
            });
        }
    });
}

/// Run a closure per (worker, input chunk) over a consumed `Vec`,
/// distributing disjoint `&mut [Option<T>]` chunks to scoped threads.
fn consume_chunked<T: Send, F: Fn(usize, &mut [Option<T>]) + Sync>(items: Vec<T>, f: F) {
    let n = items.len();
    if n == 0 {
        return;
    }
    let (workers, chunk) = chunk_len(n);
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    if workers == 1 {
        let prev = THREAD_INDEX.with(|t| t.replace(Some(0)));
        f(0, &mut slots);
        THREAD_INDEX.with(|t| t.set(prev));
        return;
    }
    std::thread::scope(|scope| {
        for (w, s) in slots.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                THREAD_INDEX.with(|t| t.set(Some(w)));
                f(w, s);
            });
        }
    });
}

/// A materialized parallel iterator: items are distributed over worker
/// threads by contiguous chunks.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

/// A lazy parallel iterator over a `usize` range (no index
/// materialization).
pub struct ParRange {
    range: Range<usize>,
}

pub trait IntoParallelIterator {
    type Item: Send;
    type Iter;
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Item = usize;
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<T: Send> IntoParallelIterator for ParIter<T> {
    type Item = T;
    type Iter = ParIter<T>;
    fn into_par_iter(self) -> ParIter<T> {
        self
    }
}

/// `par_chunks` on slices.
pub trait ParallelSlice<T: Sync> {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]>;
}

impl<T: Sync + Send> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParIter<&[T]> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParIter {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

impl ParRange {
    pub fn for_each<F: Fn(usize) + Sync + Send>(self, f: F) {
        let base = self.range.start;
        run_chunked(self.range.len(), |_, r| {
            for i in r {
                f(base + i);
            }
        });
    }

    pub fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, usize) + Sync + Send,
    {
        let base = self.range.start;
        run_chunked(self.range.len(), |_, r| {
            let mut state = init();
            for i in r {
                f(&mut state, base + i);
            }
        });
    }

    /// Per-chunk fold; the partial accumulators form a new (small)
    /// parallel iterator, exactly like rayon's `fold`.
    pub fn fold<Acc, ID, F>(self, identity: ID, fold: F) -> ParIter<Acc>
    where
        Acc: Send,
        ID: Fn() -> Acc + Sync + Send,
        F: Fn(Acc, usize) -> Acc + Sync + Send,
    {
        let base = self.range.start;
        let n = self.range.len();
        let (workers, _) = chunk_len(n);
        let partials =
            std::sync::Mutex::new((0..workers).map(|_| None).collect::<Vec<Option<Acc>>>());
        run_chunked(n, |w, r| {
            let mut acc = identity();
            for i in r {
                acc = fold(acc, base + i);
            }
            partials.lock().unwrap()[w] = Some(acc);
        });
        ParIter {
            items: partials
                .into_inner()
                .unwrap()
                .into_iter()
                .flatten()
                .collect(),
        }
    }

    pub fn map<U: Send, F: Fn(usize) -> U + Sync + Send>(self, f: F) -> ParIter<U> {
        let base = self.range.start;
        let n = self.range.len();
        let (_, chunk) = chunk_len(n);
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let out_chunks =
                std::sync::Mutex::new(out.chunks_mut(chunk.max(1)).map(Some).collect::<Vec<_>>());
            run_chunked(n, |w, r| {
                let slot = out_chunks.lock().unwrap()[w].take().expect("chunk reused");
                for (o, i) in slot.iter_mut().zip(r) {
                    *o = Some(f(base + i));
                }
            });
        }
        ParIter {
            items: out
                .into_iter()
                .map(|x| x.expect("map slot unfilled"))
                .collect(),
        }
    }

    pub fn zip<I>(self, other: I) -> ParIter<(usize, <I as IntoParallelIterator>::Item)>
    where
        I: IntoParallelIterator,
        <I as IntoParallelIterator>::Iter: IntoItems<Item = <I as IntoParallelIterator>::Item>,
    {
        let rhs = other.into_par_iter().into_items();
        ParIter {
            items: self.range.zip(rhs).collect(),
        }
    }

    pub fn collect<B: FromIterator<usize>>(self) -> B {
        self.range.collect()
    }
}

impl<T: Send> ParIter<T> {
    pub fn for_each<F: Fn(T) + Sync + Send>(self, f: F) {
        consume_chunked(self.items, |_, slots| {
            for s in slots {
                f(s.take().expect("item consumed twice"));
            }
        });
    }

    pub fn for_each_init<S, I, F>(self, init: I, f: F)
    where
        I: Fn() -> S + Sync + Send,
        F: Fn(&mut S, T) + Sync + Send,
    {
        consume_chunked(self.items, |_, slots| {
            let mut state = init();
            for s in slots {
                f(&mut state, s.take().expect("item consumed twice"));
            }
        });
    }

    pub fn map<U: Send, F: Fn(T) -> U + Sync + Send>(self, f: F) -> ParIter<U> {
        let n = self.items.len();
        let (_, chunk) = chunk_len(n);
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let out_chunks =
                std::sync::Mutex::new(out.chunks_mut(chunk.max(1)).map(Some).collect::<Vec<_>>());
            consume_chunked(self.items, |w, slots| {
                let dest = out_chunks.lock().unwrap()[w].take().expect("chunk reused");
                for (o, s) in dest.iter_mut().zip(slots) {
                    *o = Some(f(s.take().expect("item consumed twice")));
                }
            });
        }
        ParIter {
            items: out
                .into_iter()
                .map(|x| x.expect("map slot unfilled"))
                .collect(),
        }
    }

    pub fn fold<Acc, ID, F>(self, identity: ID, fold: F) -> ParIter<Acc>
    where
        Acc: Send,
        ID: Fn() -> Acc + Sync + Send,
        F: Fn(Acc, T) -> Acc + Sync + Send,
    {
        let n = self.items.len();
        let (workers, _) = chunk_len(n);
        let partials =
            std::sync::Mutex::new((0..workers).map(|_| None).collect::<Vec<Option<Acc>>>());
        consume_chunked(self.items, |w, slots| {
            let mut acc = identity();
            for s in slots {
                acc = fold(acc, s.take().expect("item consumed twice"));
            }
            partials.lock().unwrap()[w] = Some(acc);
        });
        ParIter {
            items: partials
                .into_inner()
                .unwrap()
                .into_iter()
                .flatten()
                .collect(),
        }
    }

    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: Fn(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    pub fn zip<I>(self, other: I) -> ParIter<(T, <I as IntoParallelIterator>::Item)>
    where
        I: IntoParallelIterator,
        <I as IntoParallelIterator>::Iter: IntoItems<Item = <I as IntoParallelIterator>::Item>,
    {
        let rhs = other.into_par_iter().into_items();
        ParIter {
            items: self.items.into_iter().zip(rhs).collect(),
        }
    }

    pub fn collect<B: FromIterator<T>>(self) -> B {
        self.items.into_iter().collect()
    }
}

/// Internal: extract the materialized items of an iterator type (used
/// by `zip`).
pub trait IntoItems {
    type Item: Send;
    fn into_items(self) -> Vec<Self::Item>;
}

impl<T: Send> IntoItems for ParIter<T> {
    type Item = T;
    fn into_items(self) -> Vec<T> {
        self.items
    }
}

impl IntoItems for ParRange {
    type Item = usize;
    fn into_items(self) -> Vec<usize> {
        self.range.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn range_for_each_visits_all() {
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        (0..hits.len()).into_par_iter().for_each(|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn fold_reduce_deterministic_sum() {
        let a = (0..100_000usize)
            .into_par_iter()
            .fold(|| 0u64, |acc, i| acc + i as u64)
            .reduce(|| 0u64, |a, b| a + b);
        assert_eq!(a, 100_000 * 99_999 / 2);
    }

    #[test]
    fn par_chunks_map_collect_preserves_order() {
        let data: Vec<usize> = (0..1000).collect();
        let sums: Vec<usize> = data.par_chunks(100).map(|c| c.iter().sum()).collect();
        assert_eq!(sums.len(), 10);
        assert_eq!(sums[0], (0..100).sum::<usize>());
        assert_eq!(sums[9], (900..1000).sum::<usize>());
    }

    #[test]
    fn vec_map_preserves_order() {
        let data: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = data.into_par_iter().map(|x| 2 * x).collect();
        assert!(doubled.iter().enumerate().all(|(i, &v)| v == 2 * i));
    }

    #[test]
    fn zip_pairs_in_order() {
        let a: Vec<usize> = (0..50).collect();
        let b: Vec<usize> = (100..150).collect();
        let pairs: Vec<(usize, usize)> = a.into_par_iter().zip(b).collect();
        assert_eq!(pairs.len(), 50);
        assert!(pairs.iter().all(|(x, y)| y - x == 100));
    }

    #[test]
    fn thread_index_in_bounds() {
        let max = std::sync::Mutex::new(0usize);
        (0..10_000usize).into_par_iter().for_each(|_| {
            let idx = crate::current_thread_index().unwrap_or(0);
            let mut m = max.lock().unwrap();
            *m = (*m).max(idx);
        });
        assert!(*max.lock().unwrap() < crate::current_num_threads());
    }

    #[test]
    fn for_each_init_reuses_state_per_chunk() {
        let inits = AtomicUsize::new(0);
        (0..10_000usize).into_par_iter().for_each_init(
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                vec![0u8; 16]
            },
            |s, _| {
                s[0] = s[0].wrapping_add(1);
            },
        );
        assert!(inits.load(Ordering::Relaxed) <= crate::current_num_threads());
    }
}
