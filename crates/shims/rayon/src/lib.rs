//! Minimal vendored stand-in for the `rayon` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the small slice of the rayon API it actually uses:
//! `into_par_iter()` over ranges and vectors, `par_chunks` on slices,
//! `for_each` / `for_each_init` / `map` / `fold` / `reduce` / `zip` /
//! `collect`, plus `current_num_threads` / `current_thread_index`.
//!
//! Execution model: each parallel call splits its items into at most
//! `current_num_threads()` contiguous chunks. Chunk boundaries are a
//! pure function of item count and thread count, per-chunk iteration is
//! in index order, and chunk `w` runs with `current_thread_index() ==
//! Some(w)`, so fold/reduce results are deterministic for a fixed thread
//! count. The calling thread runs chunk 0 itself; chunks `1..` go to a
//! process-wide pool of `current_num_threads() - 1` persistent workers,
//! started on the first call that needs them. An idle worker spins for
//! [`SPIN_WINDOW`] and then parks, so back-to-back calls pay a cache
//! line hand-off instead of a thread spawn or a wake-up.
//!
//! The pool holds one job at a time. A call made while another OS
//! thread owns the pool, or from inside a chunk (a nested call), runs
//! all of its chunks on the calling thread, in order, each under its own
//! thread index: same chunk map, same results, no waiting on the pool.
//! A panic in any chunk reaches the caller after every chunk of the call
//! has finished, and leaves the pool usable. Nothing here reads the
//! environment: `lkk_kokkos::set_force_sequential` is the one switch
//! that forces sequential dispatch, and it never enters this crate.

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

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
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    NUM_THREADS.store(n, Ordering::Relaxed);
    n
}

/// Index of the current worker inside a parallel call, if any.
#[inline]
pub fn current_thread_index() -> Option<usize> {
    THREAD_INDEX.with(|t| t.get())
}

/// How long an idle worker keeps polling for the next job before it
/// parks, and how long a caller polls for its workers before it yields.
/// Waking a parked thread on an idle CPU costs 8-60 us on the 2-vCPU
/// reference host and a polling worker answers in 1-2 us; the gaps
/// between dispatches of one MD step are 0.05-0.7 ms, so 1 ms keeps the
/// worker hot through a run and parks it within a millisecond of the
/// last call (`docs/performance.md`, "Dispatch: a persistent pool").
const SPIN_WINDOW: Duration = Duration::from_millis(1);

/// One chunk of one parallel call: `task(w)` runs chunk `w`.
type Task<'a> = &'a (dyn Fn(usize) + Sync + 'a);
type Panic = Box<dyn Any + Send>;

#[derive(Clone, Copy)]
struct Job {
    task: Task<'static>,
    nchunks: usize,
}

struct Slot {
    /// `Some` from the epoch bump until every worker acknowledged it.
    job: Option<Job>,
    /// Workers parked on `Pool::wake`.
    sleepers: usize,
    /// First panic a worker caught in the current job.
    panic: Option<Panic>,
}

/// The process-wide worker pool: worker `w` (1-based) runs chunk `w` of
/// every job that has one, and acknowledges every job either way.
struct Pool {
    started: Once,
    /// The one job slot: set by the caller that owns the pool.
    busy: AtomicBool,
    slot: Mutex<Slot>,
    wake: Condvar,
    /// Bumped under the `slot` lock, once per job.
    epoch: AtomicUsize,
    /// Workers that have not acknowledged the current epoch.
    pending: AtomicUsize,
}

static POOL: Pool = Pool {
    started: Once::new(),
    busy: AtomicBool::new(false),
    slot: Mutex::new(Slot {
        job: None,
        sleepers: 0,
        panic: None,
    }),
    wake: Condvar::new(),
    epoch: AtomicUsize::new(0),
    pending: AtomicUsize::new(0),
};

/// Poll `ready` for at most [`SPIN_WINDOW`]; false if it never held.
#[expect(
    clippy::disallowed_methods,
    reason = "the clock only bounds the polling: its value reaches no counter and no document (PAUSE counts are not a usable bound under a hypervisor)"
)]
fn spin_until(ready: impl Fn() -> bool) -> bool {
    if ready() {
        return true;
    }
    let deadline = Instant::now() + SPIN_WINDOW;
    while Instant::now() < deadline {
        std::hint::spin_loop();
        if ready() {
            return true;
        }
    }
    false
}

impl Pool {
    /// The slot is never locked across a chunk, and every update under
    /// the lock is a single field store, so a poisoned lock still guards
    /// valid data.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Try to take the job slot; starts the workers on first success.
    fn try_claim(&'static self) -> bool {
        let claimed = self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if claimed {
            // Workers live as long as the process: they catch every
            // panic of a chunk, so there is nothing to join for.
            self.started.call_once(|| {
                for w in 1..current_num_threads() {
                    std::thread::Builder::new()
                        .name(format!("lkk-worker-{w}"))
                        .spawn(move || self.work(w))
                        .expect("spawn pool worker");
                }
            });
        }
        claimed
    }

    fn work(&self, w: usize) -> ! {
        let mut seen = 0;
        loop {
            let job = self.next_job(&mut seen);
            if w < job.nchunks {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| run_chunk(w, job.task))) {
                    self.lock().panic.get_or_insert(p);
                }
            }
            // Pairs with the Acquire load in `Completion::drop`: the
            // chunk's writes are visible to the caller, and this worker
            // no longer holds `job.task`.
            self.pending.fetch_sub(1, Ordering::Release);
        }
    }

    /// Wait for the epoch after `seen`: poll, then park.
    fn next_job(&self, seen: &mut usize) -> Job {
        let published = || self.epoch.load(Ordering::Acquire) != *seen;
        let hot = spin_until(published);
        let mut slot = self.lock();
        if !hot {
            // The epoch moves under this lock and the publisher reads
            // `sleepers` under it, so the wake-up is not lost.
            slot.sleepers += 1;
            while !published() {
                slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
            }
            slot.sleepers -= 1;
        }
        *seen = self.epoch.load(Ordering::Relaxed);
        slot.job.expect("an epoch is published with its job")
    }
}

/// Owns the pool's job slot for one `dispatch`. Dropping it — on return
/// and on unwind alike — blocks until every worker has acknowledged the
/// current epoch, retires the job, hands back a worker's panic and only
/// then frees the slot.
struct Completion<'a> {
    pool: &'static Pool,
    worker_panic: &'a mut Option<Panic>,
}

impl Drop for Completion<'_> {
    fn drop(&mut self) {
        let acknowledged = || self.pool.pending.load(Ordering::Acquire) == 0;
        if !spin_until(acknowledged) {
            while !acknowledged() {
                std::thread::yield_now();
            }
        }
        let mut slot = self.pool.lock();
        slot.job = None;
        *self.worker_panic = slot.panic.take();
        drop(slot);
        self.pool.busy.store(false, Ordering::Release);
    }
}

/// Run `task` as chunk `w`: `current_thread_index()` is `Some(w)` inside
/// and what it was before afterwards, also when `task` panics.
fn run_chunk(w: usize, task: Task<'_>) {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_INDEX.with(|t| t.set(self.0));
        }
    }
    let _restore = Restore(THREAD_INDEX.with(|t| t.replace(Some(w))));
    task(w);
}

/// Run `task(w)` for every `w` in `0..nchunks`: chunk 0 here, the rest on
/// the pool — or all of them here, in order, when there is one chunk,
/// when this is a chunk already (nested call), or when another thread
/// owns the pool.
fn dispatch(nchunks: usize, task: Task<'_>) {
    let pool = &POOL;
    if nchunks < 2 || current_thread_index().is_some() || !pool.try_claim() {
        for w in 0..nchunks {
            run_chunk(w, task);
        }
        return;
    }
    let mut worker_panic = None;
    {
        let _completion = Completion {
            pool,
            worker_panic: &mut worker_panic,
        };
        // SAFETY: only the lifetime is erased. The erased reference lives
        // in `slot.job` alone; a worker copies it out after it observes
        // the epoch bumped below and is done with it before it
        // decrements `pending`. `_completion` exists already, and its
        // drop — the only way out of this block, by return or by unwind
        // — waits for `pending == 0` and clears `slot.job` before the
        // borrow of `task` ends.
        let task_erased: Task<'static> = unsafe { std::mem::transmute(task) };
        let mut slot = pool.lock();
        slot.job = Some(Job {
            task: task_erased,
            nchunks,
        });
        pool.pending
            .store(current_num_threads() - 1, Ordering::Relaxed);
        pool.epoch.fetch_add(1, Ordering::Release);
        let wake = slot.sleepers > 0;
        drop(slot);
        if wake {
            pool.wake.notify_all();
        }
        run_chunk(0, task);
    }
    if let Some(p) = worker_panic {
        resume_unwind(p);
    }
}

/// `(chunks, items per chunk)` for `n` items: a pure function of `n` and
/// the thread count.
fn chunk_map(n: usize) -> (usize, usize) {
    let chunk = n.div_ceil(current_num_threads()).max(1);
    (n.div_ceil(chunk), chunk)
}

/// Run `run(worker, start..end)` for disjoint chunks covering `0..n`.
fn run_chunked<F: Fn(usize, Range<usize>) + Sync>(n: usize, run: F) {
    let (nchunks, chunk) = chunk_map(n);
    dispatch(nchunks, &|w| run(w, w * chunk..((w + 1) * chunk).min(n)));
}

/// The disjoint `chunk`-sized parts of a slice, each taken once, by the
/// chunk of a parallel call that owns it.
struct Parts<'a, T>(Mutex<Vec<Option<&'a mut [T]>>>);

impl<'a, T> Parts<'a, T> {
    fn new(slice: &'a mut [T], chunk: usize) -> Self {
        Parts(Mutex::new(slice.chunks_mut(chunk).map(Some).collect()))
    }

    fn take(&self, w: usize) -> &'a mut [T] {
        self.0.lock().unwrap()[w].take().expect("chunk reused")
    }
}

/// Run a closure per (worker, input chunk) over a consumed `Vec`, each
/// worker taking its disjoint `&mut [Option<T>]` chunk.
fn consume_chunked<T: Send, F: Fn(usize, &mut [Option<T>]) + Sync>(items: Vec<T>, f: F) {
    let n = items.len();
    let (_, chunk) = chunk_map(n);
    let mut slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let parts = Parts::new(&mut slots, chunk);
    run_chunked(n, |w, _| f(w, parts.take(w)));
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
        let (nchunks, _) = chunk_map(n);
        let partials = Mutex::new((0..nchunks).map(|_| None).collect::<Vec<Option<Acc>>>());
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
        let (_, chunk) = chunk_map(n);
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let parts = Parts::new(&mut out, chunk);
            run_chunked(n, |w, r| {
                for (o, i) in parts.take(w).iter_mut().zip(r) {
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
        let (_, chunk) = chunk_map(n);
        let mut out: Vec<Option<U>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let parts = Parts::new(&mut out, chunk);
            consume_chunked(self.items, |w, slots| {
                for (o, s) in parts.take(w).iter_mut().zip(slots) {
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
        let (nchunks, _) = chunk_map(n);
        let partials = Mutex::new((0..nchunks).map(|_| None).collect::<Vec<Option<Acc>>>());
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
