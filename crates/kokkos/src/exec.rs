//! Execution spaces and parallel dispatch patterns.
//!
//! The three spaces mirror the paper's §3.3:
//!
//! * [`Space::Serial`] — sequential host execution.
//! * [`Space::Threads`] — multi-threaded host execution (rayon's API
//!   over a persistent worker pool: the caller runs the first chunk,
//!   fork-join costs single-digit µs), the analogue of the Kokkos
//!   OpenMP/Threads backend, selected by the `/kk/host` style suffix.
//! * [`Space::Device`] — the *simulated* GPU: kernels execute
//!   functionally on host threads, while every launch is logged with
//!   its event counts so `lkk-gpusim` can predict device time. Selected
//!   by the `/kk` or `/kk/device` suffix.
//!
//! The dispatch patterns are `parallel_for`, `parallel_reduce`,
//! `parallel_scan` (exclusive prefix sum) over a flat `RangePolicy`, and
//! `parallel_for_team_parts` over a hierarchical `TeamPolicy` (see
//! [`crate::team`]). `parallel_for` and `parallel_reduce` also have a
//! `_parts` form; every `_parts` dispatch gives work item `i` exclusive
//! access to its own part of an output ([`crate::parts`]).

use crate::parts::Parts;
use crate::policy::TeamPolicy;
use crate::profile::{self, KernelLog};
use crate::team::Team;
use lkk_gpusim::{GpuArch, KernelStats};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// When set, every dispatch pattern executes its sequential path even
/// on `Threads`/`Device` spaces (launch logging is unaffected); this is
/// the only switch that forces sequential dispatch. The
/// `perf-smoke` harness enables this so floating-point accumulation
/// order — and therefore every derived counter — is bit-identical
/// across machines regardless of core count.
static FORCE_SEQUENTIAL: AtomicBool = AtomicBool::new(false);

/// Force all dispatches onto their sequential execution paths.
pub fn set_force_sequential(on: bool) {
    FORCE_SEQUENTIAL.store(on, Ordering::Release);
}

/// Is force-sequential mode active?
pub fn force_sequential() -> bool {
    FORCE_SEQUENTIAL.load(Ordering::Acquire)
}

/// Context of a simulated device: which architecture it models and the
/// launch/event log.
#[derive(Debug, Clone)]
pub struct DeviceCtx {
    pub arch: Arc<GpuArch>,
    pub log: Arc<KernelLog>,
}

impl DeviceCtx {
    pub fn new(arch: GpuArch) -> Self {
        DeviceCtx {
            arch: Arc::new(arch),
            log: KernelLog::new(),
        }
    }
}

/// An execution space: where parallel kernels run.
///
/// ```
/// use lkk_kokkos::Space;
/// let space = Space::Threads;
/// let sum = space.parallel_reduce_sum("sum", 1000, |i| i as f64);
/// assert_eq!(sum, 499_500.0);
///
/// // The simulated device logs every launch for the cost model.
/// let dev = Space::device(lkk_gpusim::GpuArch::h100());
/// dev.parallel_for("touch", 10, |_| {});
/// assert_eq!(dev.device_ctx().unwrap().log.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub enum Space {
    Serial,
    #[default]
    Threads,
    Device(DeviceCtx),
}

/// Below this trip count a threaded dispatch falls back to the
/// sequential loop. With the persistent pool forking pays from 2048
/// items on (`exec.crossover_n`), so the constant is the measured floor;
/// it stays a constant because the fork decision fixes the order of
/// floating-point reductions, which must not vary between runs
/// (`docs/performance.md`, "Dispatch: a persistent pool").
pub(crate) const PAR_THRESHOLD: usize = 2048;

impl Space {
    /// A simulated device space for `arch`.
    pub fn device(arch: GpuArch) -> Space {
        Space::Device(DeviceCtx::new(arch))
    }

    pub fn is_device(&self) -> bool {
        matches!(self, Space::Device(_))
    }

    /// The device context, if this is a device space.
    pub fn device_ctx(&self) -> Option<&DeviceCtx> {
        match self {
            Space::Device(ctx) => Some(ctx),
            _ => None,
        }
    }

    /// Available hardware concurrency for work partitioning decisions.
    pub fn concurrency(&self) -> usize {
        match self {
            Space::Serial => 1,
            Space::Threads => rayon::current_num_threads(),
            Space::Device(ctx) => ctx.arch.max_resident_threads as usize,
        }
    }

    /// Record kernel event counts against this space's launch log
    /// (no-op on host spaces).
    pub fn note_kernel(&self, stats: KernelStats) {
        if let Space::Device(ctx) = self {
            ctx.log.push(stats);
        }
    }

    /// Should a `Threads`/`Device` dispatch of `n` items actually fork?
    fn fork(n: usize) -> bool {
        n >= PAR_THRESHOLD && !force_sequential()
    }

    /// `parallel_for` over `0..n`.
    pub fn parallel_for<F>(&self, label: &str, n: usize, f: F)
    where
        F: Fn(usize) + Sync + Send,
    {
        profile::note_kernel_launch(label, n);
        let f = counted(f);
        match self {
            Space::Serial => {
                for i in 0..n {
                    f(i);
                }
            }
            Space::Threads | Space::Device(_) => {
                if let Space::Device(ctx) = self {
                    ctx.log.push_launch(label, n);
                }
                if Self::fork(n) {
                    (0..n).into_par_iter().for_each(f);
                } else {
                    for i in 0..n {
                        f(i);
                    }
                }
            }
        }
    }

    /// [`Space::parallel_for`] writing into `out`: item `i` also gets its
    /// own part of it, and nothing else reaches `out` during the launch.
    /// `out` is checked before the launch; label, logged item count,
    /// fork rule and chunk map are those of the plain dispatch.
    pub fn parallel_for_parts<P, F>(&self, label: &str, n: usize, out: P, f: F)
    where
        P: Parts,
        F: Fn(usize, P::Part) + Sync + Send,
    {
        out.check(n);
        // SAFETY: `check(n)` passed, and `parallel_for` runs each `i < n`
        // once, so part `i` is cut once.
        self.parallel_for(label, n, |i| f(i, unsafe { out.part(i) }));
    }

    /// [`Space::parallel_reduce`] writing into `out`, as
    /// [`Space::parallel_for_parts`] does.
    pub fn parallel_reduce_parts<P, T, F, J>(
        &self,
        label: &str,
        n: usize,
        out: P,
        identity: T,
        f: F,
        join: J,
    ) -> T
    where
        P: Parts,
        T: Send + Sync + Copy,
        F: Fn(usize, P::Part) -> T + Sync + Send,
        J: Fn(T, T) -> T + Sync + Send,
    {
        out.check(n);
        // SAFETY: as in `parallel_for_parts`; the reduction folds each
        // `i < n` once.
        self.parallel_reduce(label, n, identity, |i| f(i, unsafe { out.part(i) }), join)
    }

    /// `parallel_reduce` with a custom identity and join.
    pub fn parallel_reduce<T, F, J>(&self, label: &str, n: usize, identity: T, f: F, join: J) -> T
    where
        T: Send + Sync + Copy,
        F: Fn(usize) -> T + Sync + Send,
        J: Fn(T, T) -> T + Sync + Send,
    {
        profile::note_kernel_launch(label, n);
        if let Space::Device(ctx) = self {
            ctx.log.push_launch(label, n);
        }
        self.reduce_unlogged(n, identity, f, join)
    }

    /// [`Space::parallel_reduce`] without the launch record: the same
    /// fork rule and fold order, but no profile hook and no device-log
    /// entry. For host bookkeeping that is not a kernel of the modelled
    /// program (the rebuild trigger's displacement maximum), so launch
    /// counts and trace ticks do not depend on how it is computed.
    pub fn reduce_unlogged<T, F, J>(&self, n: usize, identity: T, f: F, join: J) -> T
    where
        T: Send + Sync + Copy,
        F: Fn(usize) -> T + Sync + Send,
        J: Fn(T, T) -> T + Sync + Send,
    {
        let f = counted(f);
        if !matches!(self, Space::Serial) && Self::fork(n) {
            (0..n)
                .into_par_iter()
                .fold(|| identity, |acc, i| join(acc, f(i)))
                .reduce(|| identity, &join)
        } else {
            (0..n).fold(identity, |acc, i| join(acc, f(i)))
        }
    }

    /// Sum-reduction convenience.
    pub fn parallel_reduce_sum<F>(&self, label: &str, n: usize, f: F) -> f64
    where
        F: Fn(usize) -> f64 + Sync + Send,
    {
        self.parallel_reduce(label, n, 0.0, f, |a, b| a + b)
    }

    /// Exclusive prefix sum of `counts` into `offsets`
    /// (`offsets.len() == counts.len() + 1`); returns the total.
    /// This is the `parallel_scan` pattern used e.g. to build the QEq
    /// sparse-matrix row offsets (§4.2.2).
    pub fn parallel_scan(&self, label: &str, counts: &[usize], offsets: &mut [usize]) -> usize {
        assert_eq!(offsets.len(), counts.len() + 1);
        let n = counts.len();
        profile::note_kernel_launch(label, n);
        if let Space::Device(ctx) = self {
            ctx.log.push_launch(label, n);
        }
        let parallel = !matches!(self, Space::Serial) && Self::fork(n);
        if !parallel {
            let mut acc = 0usize;
            for i in 0..n {
                offsets[i] = acc;
                acc += counts[i];
            }
            offsets[n] = acc;
            return acc;
        }
        // Two-pass chunked scan, one chunk per worker: the dispatch layer
        // hands each worker one contiguous chunk and never rebalances,
        // so more chunks than workers would only add hand-offs. Per-chunk
        // sums and the output chunks sit in fixed-size stack buffers.
        const MAX_CHUNKS: usize = 64;
        let chunk = n.div_ceil(rayon::current_num_threads().min(MAX_CHUNKS));
        let nchunks = n.div_ceil(chunk);
        let sums: [AtomicUsize; MAX_CHUNKS] = std::array::from_fn(|_| AtomicUsize::new(0));
        (0..nchunks).into_par_iter().for_each(|c| {
            let sum = counts[c * chunk..((c + 1) * chunk).min(n)].iter().sum();
            sums[c].store(sum, Ordering::Relaxed);
        });
        let mut bases = [0usize; MAX_CHUNKS];
        let mut total = 0usize;
        for (base, sum) in bases.iter_mut().zip(&sums) {
            *base = total;
            total += sum.load(Ordering::Relaxed);
        }
        let (body, last) = offsets.split_at_mut(n);
        last[0] = total;
        let mut parts = body.chunks_mut(chunk);
        let outs: [_; MAX_CHUNKS] = std::array::from_fn(|_| Mutex::new(parts.next()));
        (0..nchunks).into_par_iter().for_each(|c| {
            let out = outs[c].lock().expect("one taker per chunk").take();
            let mut base = bases[c];
            for (o, cnt) in out.into_iter().flatten().zip(&counts[c * chunk..]) {
                *o = base;
                base += cnt;
            }
        });
        total
    }

    /// Hierarchical dispatch (`TeamPolicy`): one [`Team`] per league
    /// member. On host spaces a team is a single thread executing
    /// team-nested ranges sequentially, which is exactly Kokkos' host
    /// mapping.
    pub(crate) fn parallel_for_team<F>(&self, label: &str, policy: TeamPolicy, f: F)
    where
        F: Fn(&mut Team) + Sync + Send,
    {
        profile::note_kernel_launch(label, policy.league_size * policy.team_size.max(1));
        #[cfg(debug_assertions)]
        let f = |team: &mut Team| {
            let _call = crate::alloc_gate::enter();
            f(team)
        };
        let run_serial = |policy: &TeamPolicy| {
            for rank in 0..policy.league_size {
                f(&mut Team::new(rank));
            }
        };
        match self {
            Space::Serial => run_serial(&policy),
            Space::Threads | Space::Device(_) => {
                if let Space::Device(ctx) = self {
                    // Team launches record their team size so the cost
                    // model sees it even for kernels that never push
                    // full stats of their own.
                    let mut s = KernelStats::new(label);
                    s.work_items = (policy.league_size * policy.team_size.max(1)) as f64;
                    s.threads_per_team = policy.team_size.max(1) as u32;
                    ctx.log.push(s);
                }
                if force_sequential() {
                    run_serial(&policy);
                } else {
                    (0..policy.league_size)
                        .into_par_iter()
                        .for_each(|rank| f(&mut Team::new(rank)));
                }
            }
        }
    }

    /// [`Space::parallel_for_team`] writing into `out`: league member `r`
    /// also gets part `r`, as in [`Space::parallel_for_parts`].
    pub fn parallel_for_team_parts<P, F>(&self, label: &str, policy: TeamPolicy, out: P, f: F)
    where
        P: Parts,
        F: Fn(&mut Team, P::Part) + Sync + Send,
    {
        out.check(policy.league_size);
        self.parallel_for_team(label, policy, |team| {
            // SAFETY: `check` passed, and every league rank runs once.
            let part = unsafe { out.part(team.league_rank()) };
            f(team, part)
        });
    }
}

/// `f` as a dispatch calls it: under `debug_assertions` each call holds
/// the thread's dispatch depth up (see [`crate::alloc_gate`]).
#[cfg(debug_assertions)]
fn counted<A, R>(f: impl Fn(A) -> R + Sync + Send) -> impl Fn(A) -> R + Sync + Send {
    move |a| {
        let _call = crate::alloc_gate::enter();
        f(a)
    }
}

#[cfg(not(debug_assertions))]
#[inline(always)]
fn counted<F>(f: F) -> F {
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spaces() -> Vec<Space> {
        vec![
            Space::Serial,
            Space::Threads,
            Space::device(GpuArch::h100()),
        ]
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        for space in spaces() {
            let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
            space.parallel_for("t", hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn reduce_sum_matches_closed_form() {
        for space in spaces() {
            let n = 100_000usize;
            let s = space.parallel_reduce_sum("sum", n, |i| i as f64);
            assert_eq!(s, (n * (n - 1) / 2) as f64);
        }
    }

    #[test]
    fn reduce_max_custom_join() {
        for space in spaces() {
            let m = space.parallel_reduce(
                "max",
                10_000,
                f64::NEG_INFINITY,
                |i| ((i * 37) % 9973) as f64,
                f64::max,
            );
            assert_eq!(m, 9972.0);
        }
    }

    #[test]
    fn scan_small_and_large() {
        for space in spaces() {
            for n in [0usize, 1, 7, 5000] {
                let counts: Vec<usize> = (0..n).map(|i| i % 5).collect();
                let mut offsets = vec![0usize; n + 1];
                let total = space.parallel_scan("scan", &counts, &mut offsets);
                let mut acc = 0;
                for i in 0..n {
                    assert_eq!(offsets[i], acc, "n={n} i={i}");
                    acc += counts[i];
                }
                assert_eq!(offsets[n], acc);
                assert_eq!(total, acc);
            }
        }
    }

    #[test]
    fn team_policy_runs_every_league_member_once() {
        for space in spaces() {
            let sums: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
            space.parallel_for_team("team", TeamPolicy::new(64, 8), |team| {
                let mut local = 0usize;
                team.team_range(10, |i| local += i);
                sums[team.league_rank()].fetch_add(local, Ordering::Relaxed);
            });
            assert!(sums.iter().all(|s| s.load(Ordering::Relaxed) == 45));
        }
    }

    #[test]
    fn device_logs_launches() {
        let space = Space::device(GpuArch::h100());
        space.parallel_for("k", 10, |_| {});
        space.parallel_reduce_sum("r", 10, |_| 0.0);
        let ctx = space.device_ctx().unwrap();
        assert_eq!(ctx.log.len(), 2);
        // Same reduction, no record of it.
        let m = space.reduce_unlogged(10_000, 0.0, |i| ((i * 37) % 9973) as f64, f64::max);
        assert_eq!(m, 9972.0);
        assert_eq!(ctx.log.len(), 2);
    }

    #[test]
    fn host_spaces_do_not_log() {
        let space = Space::Threads;
        space.parallel_for("k", 10, |_| {});
        assert!(space.device_ctx().is_none());
    }

    #[test]
    fn force_sequential_paths_match_parallel_results() {
        // Same dispatches, forced serial: identical results, and with a
        // deterministic accumulation order on top. (The flag is global;
        // concurrently running tests only lose parallelism, never
        // correctness, while it is set.)
        let n = 100_000usize;
        let space = Space::Threads;
        let par = space.parallel_reduce_sum("sum", n, |i| (i as f64).sqrt());
        set_force_sequential(true);
        let seq1 = space.parallel_reduce_sum("sum", n, |i| (i as f64).sqrt());
        let seq2 = space.parallel_reduce_sum("sum", n, |i| (i as f64).sqrt());
        let counts: Vec<usize> = (0..5000).map(|i| i % 7).collect();
        let mut offsets = vec![0usize; counts.len() + 1];
        let total = space.parallel_scan("scan", &counts, &mut offsets);
        set_force_sequential(false);
        assert!(!force_sequential());
        // Bitwise identical between forced-sequential runs…
        assert_eq!(seq1.to_bits(), seq2.to_bits());
        // …and numerically equal to the parallel reduction.
        assert!((par - seq1).abs() < 1e-6 * par.abs());
        assert_eq!(total, counts.iter().sum::<usize>());
    }

    #[test]
    fn every_dispatch_fires_the_launch_hook_on_all_spaces() {
        use lkk_gpusim::StatsAccumulator;
        let acc = std::sync::Arc::new(StatsAccumulator::new());
        let id = crate::profile::register_subscriber(acc.clone());
        for space in spaces() {
            space.parallel_for("hook-for", 4, |_| {});
            space.parallel_reduce_sum("hook-reduce", 4, |_| 0.0);
            let mut offsets = [0usize; 3];
            space.parallel_scan("hook-scan", &[1, 2], &mut offsets);
            space.parallel_for_team("hook-team", TeamPolicy::new(2, 2), |_| {});
        }
        crate::profile::unregister_subscriber(id);
        let snap = acc.snapshot();
        for name in ["hook-for", "hook-reduce", "hook-scan", "hook-team"] {
            // Hooks fire for Serial, Threads, and Device alike. Other
            // concurrently running tests use different labels, so >= is
            // only about our own three spaces.
            assert!(
                snap.launches.get(name).copied().unwrap_or(0) >= 3,
                "missing launches for {name}"
            );
        }
    }

    #[test]
    fn team_launch_records_team_size() {
        let space = Space::device(GpuArch::h100());
        space.parallel_for_team("teamy", TeamPolicy::new(16, 32), |_| {});
        let recs = space.device_ctx().unwrap().log.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].threads_per_team, 32);
        assert_eq!(recs[0].work_items, 512.0);
    }
}
