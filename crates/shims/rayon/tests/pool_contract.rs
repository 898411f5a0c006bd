//! The dispatch contract of the shim's worker pool: the chunk map, the
//! thread index, who runs what, nested and concurrent callers, panics,
//! and the hot and parked wake-up paths.

use rayon::prelude::*;
use rayon::{current_num_threads, current_thread_index};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;

/// The pool has one job slot and the test harness runs tests on several
/// threads; every test holds this, so that its calls find the pool free
/// and take the pooled path (or contend only with its own threads).
static POOL_IS_MINE: Mutex<()> = Mutex::new(());

fn own_the_pool() -> MutexGuard<'static, ()> {
    POOL_IS_MINE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Smaller trip counts under Miri, same code paths.
fn scaled(full: usize, miri: usize) -> usize {
    if cfg!(miri) {
        miri
    } else {
        full
    }
}

/// `(worker, item)` for every item of `0..n`, in item order: item `i`
/// belongs to chunk `i / ceil(n / min(threads, n))`.
fn closed_form(n: usize) -> Vec<(usize, usize)> {
    let chunk = n.div_ceil(current_num_threads().min(n));
    (0..n).map(|i| (i / chunk, i)).collect()
}

fn here(i: usize) -> (usize, usize) {
    (current_thread_index().expect("inside a chunk"), i)
}

#[test]
fn every_operation_sees_the_closed_form_chunk_map_in_index_order() {
    let _pool = own_the_pool();
    let sizes: &[usize] = if cfg!(miri) {
        &[1, 2, 3, 65]
    } else {
        &[1, 2, 3, 2047, 2048, 10_001]
    };
    for &n in sizes {
        let want = closed_form(n);

        let seen = Mutex::new(Vec::new());
        (0..n)
            .into_par_iter()
            .for_each(|i| seen.lock().unwrap().push(here(i)));
        let seen = seen.into_inner().unwrap();
        // Chunks interleave in time; inside one chunk the order is fixed.
        for w in 0..current_num_threads() {
            let of = |v: &[(usize, usize)]| v.iter().filter(|p| p.0 == w).copied().collect();
            let (got, expected): (Vec<_>, Vec<_>) = (of(&seen), of(&want));
            assert_eq!(got, expected, "for_each, n={n}, worker {w}");
        }
        assert_eq!(seen.len(), n, "for_each, n={n}");

        let folded = (0..n)
            .into_par_iter()
            .fold(Vec::new, |mut acc, i| {
                acc.push(here(i));
                acc
            })
            .reduce(Vec::new, |mut a, b| {
                a.extend(b);
                a
            });
        assert_eq!(folded, want, "fold, n={n}");

        let mapped: Vec<_> = (0..n).into_par_iter().map(here).collect();
        assert_eq!(mapped, want, "map, n={n}");

        let items: Vec<usize> = (0..n).collect();
        let chunked: Vec<_> = items.par_chunks(1).map(|c| here(c[0])).collect();
        assert_eq!(chunked, want, "par_chunks, n={n}");
    }
}

#[test]
fn the_caller_runs_chunk_0_and_is_no_worker_afterwards() {
    let _pool = own_the_pool();
    let caller = std::thread::current().id();
    let ran_on: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
    (0..current_num_threads()).into_par_iter().for_each(|i| {
        let at = (here(i).0, std::thread::current().id());
        ran_on.lock().unwrap().push(at);
    });
    for (w, thread) in ran_on.into_inner().unwrap() {
        assert_eq!(w == 0, thread == caller, "chunk {w}");
    }
    assert_eq!(current_thread_index(), None);
}

#[test]
fn a_dispatch_from_inside_a_chunk_returns_the_sequential_answer() {
    let _pool = own_the_pool();
    let (outer, inner) = (scaled(4096, 8), scaled(100, 5));
    let total = (0..outer)
        .into_par_iter()
        .fold(
            || 0usize,
            |acc, i| {
                let mine = current_thread_index();
                let row = (0..inner)
                    .into_par_iter()
                    .fold(|| 0usize, |a, j| a + i * j)
                    .reduce(|| 0, |a, b| a + b);
                assert_eq!(
                    current_thread_index(),
                    mine,
                    "nested call restores the index"
                );
                acc + row
            },
        )
        .reduce(|| 0, |a, b| a + b);
    let want: usize = (0..outer)
        .map(|i| (0..inner).map(|j| i * j).sum::<usize>())
        .sum();
    assert_eq!(total, want);
}

#[test]
fn concurrent_callers_all_get_the_exact_sum() {
    let _pool = own_the_pool();
    let (threads, calls, n) = (4, scaled(200, 5), scaled(5000, 50));
    let start = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                start.wait();
                for _ in 0..calls {
                    let sum = (0..n)
                        .into_par_iter()
                        .fold(|| 0u64, |acc, i| acc + i as u64)
                        .reduce(|| 0, |a, b| a + b);
                    assert_eq!(sum, (n * (n - 1) / 2) as u64);
                    assert_eq!(current_thread_index(), None);
                }
            });
        }
    });
}

#[test]
fn a_panic_in_any_chunk_reaches_the_caller_and_the_pool_survives() {
    let _pool = own_the_pool();
    let n = 4 * current_num_threads();
    // The first item is in chunk 0 (the caller's), the last in the last
    // chunk (a worker's, when there is more than one thread).
    for victim in [0, n - 1] {
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            (0..n).into_par_iter().for_each(|i| {
                if i == victim {
                    panic!("item {i} gives up");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(message, &format!("item {victim} gives up"));
        assert_eq!(current_thread_index(), None, "victim {victim}");
        // Only the rest of the victim's own chunk (4 items) is skipped:
        // the call waited for every other chunk before it unwound.
        let skipped = if victim == 0 { 4 } else { 1 };
        assert_eq!(finished.load(Ordering::Relaxed), n - skipped);

        let sum = (0..n)
            .into_par_iter()
            .fold(|| 0usize, |acc, i| acc + i)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(sum, n * (n - 1) / 2, "first call after victim {victim}");
    }
}

#[test]
fn back_to_back_and_parked_dispatches_all_complete() {
    let _pool = own_the_pool();
    let done = AtomicUsize::new(0);
    let empty = || {
        (0..current_num_threads()).into_par_iter().for_each(|_| {
            done.fetch_add(1, Ordering::Relaxed);
        })
    };
    let (hot, parked) = (scaled(10_000, 50), scaled(50, 3));
    for _ in 0..hot {
        empty();
    }
    // Five spin windows apart: every one of these finds the workers parked.
    for _ in 0..parked {
        std::thread::sleep(std::time::Duration::from_millis(5));
        empty();
    }
    assert_eq!(
        done.load(Ordering::Relaxed),
        (hot + parked) * current_num_threads()
    );
}
