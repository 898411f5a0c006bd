//! The profiling layer: regions, kernel hooks, transfer accounting, and
//! subscriber dispatch.
//!
//! This is the stack's analogue of the Kokkos Tools interface. It has
//! three ingredients:
//!
//! * **Named regions** — nested, `/`-joined paths maintained on a
//!   per-thread stack (`kokkosp_push_profile_region`). Open one with
//!   [`begin_region`], which returns an RAII [`RegionGuard`]; the region
//!   closes when the guard drops (or [`RegionGuard::finish`] is called
//!   to also read the elapsed wall time).
//! * **Kernel hooks and logs** — every dispatch in [`crate::exec`]
//!   fires [`note_kernel_launch`] (`kokkosp_begin_parallel_for`), and
//!   instrumented kernels push full [`KernelStats`] records into the
//!   per-device [`KernelLog`], which tags each record with the region
//!   path active at record time.
//! * **Transfers** — [`crate::DualView`] synchronisation reports
//!   host↔device copies ([`note_h2d_labeled`]/[`note_d2h_labeled`]),
//!   tallied in global counters (`kokkosp_begin_deep_copy`).
//!
//! All three event classes are mirrored to any registered
//! [`ProfileSubscriber`]s (see [`lkk_gpusim::subscriber`]) so the cost
//! model, the text reports, and the `perf-smoke` regression harness all
//! consume one event stream.

use lkk_gpusim::{KernelStats, ProfileSubscriber, TransferDir};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------
// Subscriber registry
// ---------------------------------------------------------------------

/// Handle returned by [`register_subscriber`]; pass to
/// [`unregister_subscriber`] to detach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberId(u64);

static SUBSCRIBERS: Mutex<Vec<(u64, Arc<dyn ProfileSubscriber>)>> = Mutex::new(Vec::new());
static NEXT_SUBSCRIBER_ID: AtomicU64 = AtomicU64::new(1);
/// Mirror of `SUBSCRIBERS.len()` so the hot dispatch path can skip the
/// lock entirely when nobody is listening (the common case).
static SUBSCRIBER_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Attach a subscriber to the global event stream. Events fire from
/// whatever thread dispatches kernels, so the subscriber must do its
/// own locking (see [`lkk_gpusim::StatsAccumulator`]).
pub fn register_subscriber(sub: Arc<dyn ProfileSubscriber>) -> SubscriberId {
    let id = NEXT_SUBSCRIBER_ID.fetch_add(1, Ordering::Relaxed);
    let mut subs = SUBSCRIBERS.lock().unwrap();
    subs.push((id, sub));
    SUBSCRIBER_COUNT.store(subs.len(), Ordering::Release);
    SubscriberId(id)
}

/// Detach a subscriber. Unknown ids are ignored.
pub fn unregister_subscriber(id: SubscriberId) {
    let mut subs = SUBSCRIBERS.lock().unwrap();
    subs.retain(|(sid, _)| *sid != id.0);
    SUBSCRIBER_COUNT.store(subs.len(), Ordering::Release);
}

/// Is anyone listening? The `note_*` hooks build their payload only
/// when someone is, so they need no gate; this gates the one other
/// payload a caller builds ahead of a hook, the region name handed to
/// [`begin_region`].
pub fn has_subscribers() -> bool {
    SUBSCRIBER_COUNT.load(Ordering::Acquire) > 0
}

/// Run `f` on every registered subscriber. Arcs are cloned out of the
/// registry first so subscriber callbacks never run under the registry
/// lock (a subscriber may itself trigger profiled work).
fn for_each_subscriber(f: impl Fn(&dyn ProfileSubscriber)) {
    if SUBSCRIBER_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    let subs: Vec<Arc<dyn ProfileSubscriber>> = {
        let guard = SUBSCRIBERS.lock().unwrap();
        guard.iter().map(|(_, s)| Arc::clone(s)).collect()
    };
    for s in &subs {
        f(s.as_ref());
    }
}

// ---------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------

thread_local! {
    /// Stack of open region names on this thread. Kernels are tagged
    /// with the `/`-joined path at dispatch time; dispatch always
    /// happens on the thread that owns the enclosing regions, so a
    /// thread-local stack is exact.
    static REGION_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The `/`-joined path of open regions on this thread (`""` if none).
pub fn current_region() -> String {
    REGION_STACK.with(|s| s.borrow().join("/"))
}

/// Current region nesting depth on this thread.
pub fn region_depth() -> usize {
    REGION_STACK.with(|s| s.borrow().len())
}

/// RAII guard for a named profiling region. Dropping it pops the region
/// and fires `region_end`; [`RegionGuard::finish`] does the same but
/// returns the elapsed wall time, which is how `lkk-core` implements
/// its phase timers.
///
/// ```
/// use lkk_kokkos::profile;
/// let step = profile::begin_region("step");
/// {
///     let _pair = profile::begin_region("pair");
///     assert_eq!(profile::current_region(), "step/pair");
/// }
/// assert_eq!(profile::current_region(), "step");
/// let seconds = step.finish();
/// assert!(seconds >= 0.0);
/// ```
#[must_use = "dropping the guard immediately closes the region"]
pub struct RegionGuard {
    path: String,
    depth: usize,
    start: Instant,
    open: bool,
}

/// Open a nested named region on this thread.
///
/// `name` must not contain `/` (it would corrupt the path encoding);
/// nesting is expressed by holding multiple guards, not by composite
/// names.
#[expect(
    clippy::disallowed_methods,
    reason = "RegionGuard's advisory wall-time span is the profiling subsystem itself; deterministic trace mode replaces these timestamps with logical ticks before export"
)]
pub fn begin_region(name: impl Into<String>) -> RegionGuard {
    let name = name.into();
    debug_assert!(!name.contains('/'), "region name {name:?} contains '/'");
    let (path, depth) = REGION_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.push(name);
        (stack.join("/"), stack.len())
    });
    for_each_subscriber(|sub| sub.region_begin(&path, depth));
    RegionGuard {
        path,
        depth,
        start: Instant::now(),
        open: true,
    }
}

impl RegionGuard {
    /// The full `/`-joined path of this region.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Close the region now and return the elapsed wall time in
    /// seconds. Wall time is advisory — it never enters the
    /// deterministic counter set.
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        if !self.open {
            return 0.0;
        }
        self.open = false;
        let seconds = self.start.elapsed().as_secs_f64();
        REGION_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Regions normally close innermost-first (guards are
            // lexically scoped), but drops can reorder — a panic
            // unwinding past sibling guards, or guards stored in a
            // struct dropping in field order. Asserting here would turn
            // an unwind into an abort, so recover instead: truncate
            // every region at or above this guard's depth (the inner
            // guards' own closes then find their slot already gone and
            // no-op), and treat a stack that is already shorter as
            // closed-by-an-outer-guard.
            if stack.len() >= self.depth {
                stack.truncate(self.depth - 1);
            }
        });
        for_each_subscriber(|sub| sub.region_end(&self.path, self.depth, seconds));
        seconds
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------
// Kernel hooks
// ---------------------------------------------------------------------

/// Kernel-dispatch hook: fired by every [`crate::Space`] dispatch (all
/// spaces, host included), before the kernel body runs — the analogue
/// of `kokkosp_begin_parallel_for`. Forwards to subscribers with the
/// dispatching thread's region path.
pub fn note_kernel_launch(name: &str, work_items: usize) {
    if SUBSCRIBER_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    let region = current_region();
    for_each_subscriber(|sub| sub.kernel_launch(name, &region, work_items));
}

/// Fire a point-in-time event (no duration) to subscribers, tagged with
/// the calling thread's region path. `payload` returns the name and an
/// event-specific value (0.0 when there is nothing to attach); it runs
/// only when a subscriber is attached, so a caller never gates the hook
/// and never builds a label nobody reads.
///
/// ```
/// use lkk_kokkos::profile;
/// let p = 3;
/// profile::note_instant(|| (format!("halo->r{p}"), 128.0));
/// ```
///
/// The eager form, which built its name before the hook could skip it,
/// does not compile:
///
/// ```compile_fail,E0061
/// lkk_kokkos::profile::note_instant("x", 1.0);
/// ```
pub fn note_instant<N: AsRef<str>>(payload: impl FnOnce() -> (N, f64)) {
    if SUBSCRIBER_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    let (name, value) = payload();
    let region = current_region();
    for_each_subscriber(|sub| sub.instant(name.as_ref(), &region, value));
}

/// Fire a counter sample (`name` = `value` as of now) to subscribers,
/// tagged with the calling thread's region path, the payload built only
/// when someone listens (see [`note_instant`]). Timeline consumers
/// render these as counter tracks; see
/// [`lkk_gpusim::ProfileSubscriber::counter`].
pub fn note_counter<N: AsRef<str>>(payload: impl FnOnce() -> (N, f64)) {
    if SUBSCRIBER_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    let (name, value) = payload();
    let region = current_region();
    for_each_subscriber(|sub| sub.counter(name.as_ref(), &region, value));
}

/// Fire a cross-lane flow *begin* to subscribers: the calling thread
/// just emitted the message identified by `id` (see
/// `lkk_core::comm::fault::flow_id`). `name` is the phase tag
/// (`"forward"`, `"border"`, ...). `payload` returns `(name, id)` and
/// runs only when someone listens (see [`note_instant`]). Tagged with
/// the calling thread's region path so timeline consumers can bind the
/// flow to the enclosing span.
pub fn note_flow_begin<N: AsRef<str>>(payload: impl FnOnce() -> (N, u64)) {
    if SUBSCRIBER_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    let (name, id) = payload();
    let region = current_region();
    for_each_subscriber(|sub| sub.flow_begin(name.as_ref(), &region, id));
}

/// Fire the matching cross-lane flow *end*: the calling thread just
/// accepted the message identified by `id`.
pub fn note_flow_end<N: AsRef<str>>(payload: impl FnOnce() -> (N, u64)) {
    if SUBSCRIBER_COUNT.load(Ordering::Acquire) == 0 {
        return;
    }
    let (name, id) = payload();
    let region = current_region();
    for_each_subscriber(|sub| sub.flow_end(name.as_ref(), &region, id));
}

/// The launch log of a simulated device: one row per kernel name, each
/// the sum of every record pushed under that name, so its size is the
/// number of distinct kernels however long the run.
#[derive(Debug, Default)]
pub struct KernelLog {
    rows: Mutex<Vec<KernelStats>>,
}

impl KernelLog {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record the event counts of one kernel execution. The record is
    /// tagged with the dispatching thread's current region path (unless
    /// the caller already set one), mirrored to subscribers, then merged
    /// into its kernel's row in push order (the row keeps the first
    /// record's region and configuration, see [`KernelStats::accumulate`]).
    pub fn push(&self, mut stats: KernelStats) {
        if stats.region.is_empty() {
            stats.region = current_region();
        }
        for_each_subscriber(|sub| sub.kernel_stats(&stats));
        let mut rows = self.rows.lock().unwrap();
        match rows.iter_mut().find(|row| row.name == stats.name) {
            Some(row) => row.accumulate(&stats),
            None => rows.push(stats),
        }
    }

    /// Record a bare launch with only a name and work-item count (used
    /// by generic `parallel_for` dispatches that carry no cost model of
    /// their own; they still pay launch latency).
    pub fn push_launch(&self, name: &str, work_items: usize) {
        let mut s = KernelStats::new(name);
        s.work_items = work_items as f64;
        self.push(s);
    }

    /// Take the merged rows (first-launch order) and empty the log.
    pub fn drain(&self) -> Vec<KernelStats> {
        std::mem::take(&mut *self.rows.lock().unwrap())
    }

    /// Distinct kernels logged; their `launches` count the dispatches.
    pub fn len(&self) -> usize {
        self.rows.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the merged rows, one per kernel name in first-launch
    /// order, leaving the log as it is.
    pub fn aggregate(&self) -> Vec<KernelStats> {
        self.rows.lock().unwrap().clone()
    }
}

// ---------------------------------------------------------------------
// Transfers
// ---------------------------------------------------------------------

static H2D_BYTES: AtomicU64 = AtomicU64::new(0);
static D2H_BYTES: AtomicU64 = AtomicU64::new(0);
static H2D_COUNT: AtomicU64 = AtomicU64::new(0);
static D2H_COUNT: AtomicU64 = AtomicU64::new(0);

/// Record a host→device transfer with the View's label (the analogue
/// of `kokkosp_begin_deep_copy`, which names both views).
pub fn note_h2d_labeled(label: &str, bytes: usize) {
    H2D_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    H2D_COUNT.fetch_add(1, Ordering::Relaxed);
    for_each_subscriber(|sub| sub.transfer(TransferDir::HostToDevice, label, bytes as u64));
}

/// Record a device→host transfer with the View's label.
pub fn note_d2h_labeled(label: &str, bytes: usize) {
    D2H_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    D2H_COUNT.fetch_add(1, Ordering::Relaxed);
    for_each_subscriber(|sub| sub.transfer(TransferDir::DeviceToHost, label, bytes as u64));
}

/// Snapshot of global transfer counters:
/// `(h2d_bytes, d2h_bytes, h2d_transfers, d2h_transfers)`.
pub fn transfer_totals() -> (u64, u64, u64, u64) {
    (
        H2D_BYTES.load(Ordering::Relaxed),
        D2H_BYTES.load(Ordering::Relaxed),
        H2D_COUNT.load(Ordering::Relaxed),
        D2H_COUNT.load(Ordering::Relaxed),
    )
}

/// Reset the global transfer counters (benchmark harness use).
pub fn reset_transfer_totals() {
    H2D_BYTES.store(0, Ordering::Relaxed);
    D2H_BYTES.store(0, Ordering::Relaxed);
    H2D_COUNT.store(0, Ordering::Relaxed);
    D2H_COUNT.store(0, Ordering::Relaxed);
}

/// Serializes tests that reset/assert the global transfer counters
/// against tests that merely bump them (the test harness runs tests
/// concurrently in one process).
#[cfg(test)]
pub(crate) static TRANSFER_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use lkk_gpusim::StatsAccumulator;

    #[test]
    fn log_push_and_aggregate() {
        let log = KernelLog::new();
        log.push_launch("k1", 100);
        log.push_launch("k1", 200);
        log.push_launch("k2", 50);
        assert_eq!(log.len(), 2);
        let agg = log.aggregate();
        assert_eq!(agg.len(), 2);
        let k1 = agg.iter().find(|s| s.name == "k1").unwrap();
        assert_eq!(k1.work_items, 300.0);
        assert_eq!(k1.launches, 2.0);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].name, "k1");
        assert!(log.is_empty());
    }

    #[test]
    fn regions_nest_and_unwind() {
        assert_eq!(current_region(), "");
        let outer = begin_region("step");
        assert_eq!(current_region(), "step");
        assert_eq!(region_depth(), 1);
        {
            let _inner = begin_region("pair");
            assert_eq!(current_region(), "step/pair");
            assert_eq!(region_depth(), 2);
        }
        // Inner guard dropped: back to the outer region.
        assert_eq!(current_region(), "step");
        let secs = outer.finish();
        assert!(secs >= 0.0);
        assert_eq!(current_region(), "");
        assert_eq!(region_depth(), 0);
    }

    #[test]
    fn kernel_records_are_region_tagged() {
        let log = KernelLog::new();
        log.push_launch("outside", 1);
        {
            let _r = begin_region("force");
            log.push_launch("inside", 1);
            // A caller-set region is preserved.
            let mut pre = KernelStats::new("preset");
            pre.region = "custom".into();
            log.push(pre);
        }
        let recs = log.drain();
        assert_eq!(recs[0].region, "");
        assert_eq!(recs[1].region, "force");
        assert_eq!(recs[2].region, "custom");
    }

    #[test]
    fn subscriber_sees_regions_kernels_and_transfers() {
        let _serialize = TRANSFER_TEST_LOCK.lock().unwrap();
        let acc = Arc::new(StatsAccumulator::new());
        let id = register_subscriber(acc.clone());
        {
            let _r = begin_region("sub-test-step");
            note_kernel_launch("sub-test-kernel", 42);
            let log = KernelLog::new();
            let mut s = KernelStats::new("sub-test-kernel");
            s.flops = 7.0;
            log.push(s);
            note_h2d_labeled("sub-test-view", 64);
        }
        unregister_subscriber(id);
        // Events after unregistration are not seen.
        note_h2d_labeled("sub-test-view", 64);

        let snap = acc.snapshot();
        assert_eq!(snap.regions["sub-test-step"], 1);
        assert_eq!(snap.launches["sub-test-kernel"], 1);
        let k = snap
            .kernels
            .iter()
            .find(|k| k.name == "sub-test-kernel")
            .unwrap();
        assert_eq!(k.region, "sub-test-step");
        assert_eq!(k.flops, 7.0);
        // Transfer totals may include traffic from concurrently running
        // tests (the counter is global), but this accumulator only saw
        // one labeled transfer while registered.
        assert_eq!(snap.h2d.count, 1);
        assert_eq!(snap.h2d.bytes, 64);
    }

    #[test]
    fn panic_inside_region_recovers_the_stack() {
        // A panic while regions are open must unwind cleanly (no abort
        // from the old out-of-order assert) and leave the thread's
        // region stack exactly where it was before the panicked scope.
        let outer = begin_region("panic-outer");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inner = begin_region("panic-inner");
            let _deeper = begin_region("panic-deeper");
            panic!("boom");
        }));
        assert!(result.is_err());
        assert_eq!(current_region(), "panic-outer");
        // The layer still works after recovery.
        {
            let _next = begin_region("panic-after");
            assert_eq!(current_region(), "panic-outer/panic-after");
        }
        drop(outer);
        assert_eq!(region_depth(), 0);
    }

    #[test]
    fn out_of_order_close_truncates_instead_of_leaking() {
        // Dropping an outer guard before an inner one (possible when
        // guards are stored in structs) closes everything at or above
        // the outer depth; the inner guard's own close then no-ops.
        let outer = begin_region("ooo-outer");
        let inner = begin_region("ooo-inner");
        drop(outer);
        assert_eq!(region_depth(), 0);
        drop(inner);
        assert_eq!(region_depth(), 0);
        assert_eq!(current_region(), "");
    }

    #[test]
    fn instants_and_counters_reach_subscribers_with_region() {
        use std::sync::Mutex as StdMutex;
        #[derive(Default)]
        struct Sink {
            events: StdMutex<Vec<(String, String, String, f64)>>,
        }
        impl ProfileSubscriber for Sink {
            fn instant(&self, name: &str, region: &str, value: f64) {
                self.events
                    .lock()
                    .unwrap()
                    .push(("i".into(), name.into(), region.into(), value));
            }
            fn counter(&self, name: &str, region: &str, value: f64) {
                self.events
                    .lock()
                    .unwrap()
                    .push(("c".into(), name.into(), region.into(), value));
            }
        }
        let sink = Arc::new(Sink::default());
        let id = register_subscriber(sink.clone());
        {
            let _r = begin_region("evt-test");
            note_instant(|| ("tick", 7.0));
            note_counter(|| ("bytes", 128.0));
        }
        unregister_subscriber(id);
        note_instant(|| ("tick", 8.0)); // after detach: unseen
        let events = sink.events.lock().unwrap();
        assert!(events.contains(&("i".into(), "tick".into(), "evt-test".into(), 7.0)));
        assert!(events.contains(&("c".into(), "bytes".into(), "evt-test".into(), 128.0)));
        assert!(!events.iter().any(|e| e.3 == 8.0));
    }

    #[test]
    fn flows_reach_subscribers_with_region() {
        use std::sync::Mutex as StdMutex;
        #[derive(Default)]
        struct Sink {
            flows: StdMutex<Vec<(String, String, String, u64)>>,
        }
        impl ProfileSubscriber for Sink {
            fn flow_begin(&self, name: &str, region: &str, id: u64) {
                self.flows
                    .lock()
                    .unwrap()
                    .push(("s".into(), name.into(), region.into(), id));
            }
            fn flow_end(&self, name: &str, region: &str, id: u64) {
                self.flows
                    .lock()
                    .unwrap()
                    .push(("f".into(), name.into(), region.into(), id));
            }
        }
        let sink = Arc::new(Sink::default());
        let id = register_subscriber(sink.clone());
        {
            let _r = begin_region("flow-test");
            note_flow_begin(|| ("forward", 0xabcd));
            note_flow_end(|| ("forward", 0xabcd));
        }
        unregister_subscriber(id);
        note_flow_begin(|| ("forward", 0xffff)); // after detach: unseen
        let flows = sink.flows.lock().unwrap();
        assert!(flows.contains(&("s".into(), "forward".into(), "flow-test".into(), 0xabcd)));
        assert!(flows.contains(&("f".into(), "forward".into(), "flow-test".into(), 0xabcd)));
        assert!(!flows.iter().any(|f| f.3 == 0xffff));
    }

    #[test]
    fn transfer_counters_accumulate_and_reset() {
        let _serialize = TRANSFER_TEST_LOCK.lock().unwrap();
        reset_transfer_totals();
        note_h2d_labeled("a", 100);
        note_h2d_labeled("b", 28);
        note_d2h_labeled("a", 8);
        assert_eq!(transfer_totals(), (128, 8, 2, 1));
        reset_transfer_totals();
        assert_eq!(transfer_totals(), (0, 0, 0, 0));
    }
}
