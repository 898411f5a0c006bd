//! The event collector: per-thread append-only lane buffers fed by the
//! global `lkk_kokkos::profile` subscriber stream.
//!
//! Every profiling event is recorded on the *lane* of the thread that
//! emitted it. A lane is named after the thread's outermost region when
//! that region is a rank marker (`rank0`, `rank1`, ... — what
//! the `RunSpec` brick driver opens first thing on each worker), and
//! `host`
//! otherwise. Each lane keeps its own logical-tick clock (one tick per
//! event on that lane), which is what makes the deterministic mode
//! byte-stable under concurrency: a lane's timestamps are a pure
//! function of that thread's own event sequence.
//!
//! Kernel-stats records additionally produce a *device* event on the
//! lane's synthetic device track, with a duration predicted by the
//! `lkk-gpusim` cost model for the collector's architecture. Device
//! events are serialized per lane with a cursor (`start = max(host
//! timestamp, cursor)`, `cursor = start + duration`) so the predicted
//! timeline never self-overlaps.

use crate::metrics::MetricsRegistry;
use lkk_gpusim::{GpuArch, KernelStats, ProfileSubscriber, TransferDir};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which timestamp the exporters render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Per-lane logical ticks: byte-stable across runs (with
    /// `force_sequential` counters), the CI mode. Cross-lane ordering
    /// is not meaningful.
    Deterministic,
    /// Microseconds of wall clock since collection started: the
    /// human-readable mode for Perfetto timelines.
    Wall,
}

impl TraceMode {
    /// The unit the exports name their clock by.
    pub(crate) fn clock(self) -> &'static str {
        match self {
            TraceMode::Deterministic => "ticks",
            TraceMode::Wall => "us",
        }
    }

    /// Of an event's two timestamps, the one this mode renders.
    pub(crate) fn pick(self, det: f64, wall: f64) -> f64 {
        match self {
            TraceMode::Deterministic => det,
            TraceMode::Wall => wall,
        }
    }
}

/// One recorded host-lane event.
pub(crate) struct Event {
    /// Lane-local logical tick (0, 1, 2, ... per lane).
    pub(crate) ts_det: f64,
    /// Microseconds since the collector's epoch.
    pub(crate) ts_wall: f64,
    pub(crate) kind: EventKind,
}

pub(crate) enum EventKind {
    /// Region push; the payload is the leaf name (nesting carries the
    /// rest of the path).
    Begin(String),
    /// Region pop.
    End(String),
    /// Point event with a value payload (`ph: "i"` in trace_event).
    Instant { name: String, value: f64 },
    /// Counter-track sample; `value` is the cumulative per-lane total
    /// at sample time (`ph: "C"`).
    Counter { name: String, value: f64 },
    /// Kernel dispatch marker on the host lane.
    Launch { name: String, work_items: f64 },
    /// Cross-lane flow origin (`ph: "s"`): this lane emitted the
    /// message `id` (see `lkk_core::comm::fault::flow_id`); `name` is
    /// the phase tag.
    FlowBegin { name: String, id: u64 },
    /// Cross-lane flow terminus (`ph: "f"`): this lane accepted the
    /// message `id`.
    FlowEnd { name: String, id: u64 },
}

/// One predicted kernel execution on a synthetic device lane.
pub(crate) struct DeviceEvent {
    pub(crate) ts_det: f64,
    pub(crate) ts_wall: f64,
    pub(crate) dur_us: f64,
    pub(crate) name: String,
}

pub(crate) struct LaneData {
    pub(crate) name: String,
    tick: u64,
    pub(crate) events: Vec<Event>,
    pub(crate) device: Vec<DeviceEvent>,
    dev_cursor_det: f64,
    dev_cursor_wall: f64,
    /// Running totals behind the cumulative counter tracks.
    counter_totals: BTreeMap<String, f64>,
}

pub(crate) struct Lane {
    pub(crate) data: Mutex<LaneData>,
}

/// Collector instance ids, so the thread-local lane cache can tell
/// collectors apart (tests may have several alive at once).
static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (collector id, this thread's lane in that collector). Stale
    /// entries for dropped collectors are harmless; the list stays tiny
    /// because a process rarely has more than a couple of collectors.
    static LANE_CACHE: RefCell<Vec<(u64, Arc<Lane>)>> = const { RefCell::new(Vec::new()) };
}

/// A [`ProfileSubscriber`] that records the full event stream as
/// per-lane timelines and feeds a [`MetricsRegistry`].
///
/// Register with `lkk_kokkos::profile::register_subscriber`, run the
/// workload, unregister, then export with
/// [`TraceCollector::export_chrome`] /
/// [`TraceCollector::metrics`]`.to_value()`.
pub struct TraceCollector {
    id: u64,
    mode: TraceMode,
    arch: GpuArch,
    epoch: Instant,
    lanes: Mutex<Vec<Arc<Lane>>>,
    metrics: Arc<MetricsRegistry>,
}

impl TraceCollector {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock epoch anchor used only in Wall timestamp mode; Logical mode (the baseline-gated mode) never reads it"
    )]
    pub fn new(mode: TraceMode, arch: GpuArch) -> Self {
        Self {
            id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
            mode,
            arch,
            epoch: Instant::now(),
            lanes: Mutex::new(Vec::new()),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Deterministic-tick collector (the CI configuration).
    pub fn deterministic(arch: GpuArch) -> Self {
        Self::new(TraceMode::Deterministic, arch)
    }

    /// Wall-clock collector for human-readable timelines.
    pub fn wall(arch: GpuArch) -> Self {
        Self::new(TraceMode::Wall, arch)
    }

    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    pub(crate) fn arch_name(&self) -> &'static str {
        self.arch.name
    }

    /// The metrics registry this collector feeds (shared; harvest code
    /// may add its own gauges/histograms to the same dump).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Number of lanes with at least one event.
    pub fn lane_count(&self) -> usize {
        self.lanes.lock().unwrap().len()
    }

    /// Snapshot the lanes sorted by name (stable: creation order breaks
    /// ties, which only concurrent unnamed host threads can produce).
    pub(crate) fn sorted_lanes(&self) -> Vec<Arc<Lane>> {
        let mut lanes = self.lanes.lock().unwrap().clone();
        lanes.sort_by_key(|l| l.data.lock().unwrap().name.clone());
        lanes
    }

    /// This thread's lane in this collector, creating it on first use.
    fn lane(&self) -> Arc<Lane> {
        LANE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, lane)) = cache.iter().find(|(cid, _)| *cid == self.id) {
                return Arc::clone(lane);
            }
            let lane = Arc::new(Lane {
                data: Mutex::new(LaneData {
                    name: "host".to_string(),
                    tick: 0,
                    events: Vec::new(),
                    device: Vec::new(),
                    dev_cursor_det: 0.0,
                    dev_cursor_wall: 0.0,
                    counter_totals: BTreeMap::new(),
                }),
            });
            self.lanes.lock().unwrap().push(Arc::clone(&lane));
            // Bound the cache: drop the oldest stale entries first.
            if cache.len() >= 8 {
                cache.remove(0);
            }
            cache.push((self.id, Arc::clone(&lane)));
            lane
        })
    }

    fn wall_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Record one host-lane event, renaming the lane if `root` is a
    /// rank marker and the lane still carries the default name.
    fn record(&self, root: &str, kind: EventKind) {
        let lane = self.lane();
        let wall = self.wall_us();
        let mut d = lane.data.lock().unwrap();
        if d.name == "host" && is_rank_root(root) {
            d.name = root.to_string();
        }
        let tick = d.tick;
        d.tick += 1;
        d.events.push(Event {
            ts_det: tick as f64,
            ts_wall: wall,
            kind,
        });
    }

    /// Bump the cumulative per-lane total behind counter track `name`
    /// and record a counter sample with the new total.
    fn record_cumulative(&self, root: &str, name: &str, delta: f64) {
        let lane = self.lane();
        let wall = self.wall_us();
        let mut d = lane.data.lock().unwrap();
        if d.name == "host" && is_rank_root(root) {
            d.name = root.to_string();
        }
        let total = d.counter_totals.entry(name.to_string()).or_insert(0.0);
        *total += delta;
        let value = *total;
        let tick = d.tick;
        d.tick += 1;
        d.events.push(Event {
            ts_det: tick as f64,
            ts_wall: wall,
            kind: EventKind::Counter {
                name: name.to_string(),
                value,
            },
        });
    }
}

/// Is `root` a rank-thread marker region (`rank` + digits)?
pub(crate) fn is_rank_root(root: &str) -> bool {
    root.strip_prefix("rank")
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// First segment of a region path (`""` stays `""`).
fn root_of(path: &str) -> &str {
    path.split('/').next().unwrap_or("")
}

/// Last segment of a region path.
fn leaf_of(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Metrics key prefix for events from `region`: the first path segment,
/// or `host` outside any region.
fn metrics_root(region: &str) -> &str {
    let r = root_of(region);
    if r.is_empty() {
        "host"
    } else {
        r
    }
}

impl ProfileSubscriber for TraceCollector {
    fn region_begin(&self, path: &str, _depth: usize) {
        self.record(root_of(path), EventKind::Begin(leaf_of(path).to_string()));
    }

    fn region_end(&self, path: &str, _depth: usize, _seconds: f64) {
        self.record(root_of(path), EventKind::End(leaf_of(path).to_string()));
    }

    fn kernel_launch(&self, name: &str, region: &str, work_items: usize) {
        self.record(
            root_of(region),
            EventKind::Launch {
                name: name.to_string(),
                work_items: work_items as f64,
            },
        );
    }

    fn kernel_stats(&self, stats: &KernelStats) {
        // A predicted execution on the synthetic device lane. Duration
        // is a pure function of the deterministic counters, so device
        // lanes stay byte-stable too.
        let dur_us = stats.time_on_default(&self.arch).seconds * 1e6;
        let lane = self.lane();
        let wall = self.wall_us();
        let mut d = lane.data.lock().unwrap();
        let root = root_of(&stats.region);
        if d.name == "host" && is_rank_root(root) {
            d.name = root.to_string();
        }
        let host_det = d.tick as f64;
        let ts_det = host_det.max(d.dev_cursor_det);
        d.dev_cursor_det = ts_det + dur_us;
        let ts_wall = wall.max(d.dev_cursor_wall);
        d.dev_cursor_wall = ts_wall + dur_us;
        d.device.push(DeviceEvent {
            ts_det,
            ts_wall,
            dur_us,
            name: stats.name.clone(),
        });
    }

    fn transfer(&self, dir: TransferDir, _label: &str, bytes: u64) {
        let track = match dir {
            TransferDir::HostToDevice => "h2d_bytes",
            TransferDir::DeviceToHost => "d2h_bytes",
        };
        let region = lkk_kokkos::profile::current_region();
        self.record_cumulative(root_of(&region), track, bytes as f64);
        self.metrics
            .add_counter(&format!("{}/{track}", metrics_root(&region)), bytes as f64);
    }

    fn instant(&self, name: &str, region: &str, value: f64) {
        self.record(
            root_of(region),
            EventKind::Instant {
                name: name.to_string(),
                value,
            },
        );
        // Instants carry per-event increments (bytes sent, items
        // dropped); the registry sums them.
        self.metrics
            .add_counter(&format!("{}/{name}", metrics_root(region)), value);
    }

    fn counter(&self, name: &str, region: &str, value: f64) {
        self.record(
            root_of(region),
            EventKind::Counter {
                name: name.to_string(),
                value,
            },
        );
        // Counter samples are absolute values: the gauge keeps the last
        // sample, the histogram the distribution over the run.
        let key = format!("{}/{name}", metrics_root(region));
        self.metrics.set_gauge(&key, value);
        self.metrics.observe(&key, value);
    }

    fn flow_begin(&self, name: &str, region: &str, id: u64) {
        self.record(
            root_of(region),
            EventKind::FlowBegin {
                name: name.to_string(),
                id,
            },
        );
        self.metrics.add_counter(
            &format!("{}/comm.flow_out.{name}", metrics_root(region)),
            1.0,
        );
    }

    fn flow_end(&self, name: &str, region: &str, id: u64) {
        self.record(
            root_of(region),
            EventKind::FlowEnd {
                name: name.to_string(),
                id,
            },
        );
        self.metrics.add_counter(
            &format!("{}/comm.flow_in.{name}", metrics_root(region)),
            1.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkk_kokkos::profile;

    /// Collector tests register global subscribers; serialize them so
    /// concurrent tests in this binary don't pollute each other's lanes
    /// beyond what the assertions tolerate.
    pub(crate) static COLLECTOR_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lane_named(c: &TraceCollector, name: &str) -> Option<Arc<Lane>> {
        c.sorted_lanes()
            .into_iter()
            .find(|l| l.data.lock().unwrap().name == name)
    }

    #[test]
    fn events_land_on_the_emitting_thread_lane() {
        let _serial = COLLECTOR_TEST_LOCK.lock().unwrap();
        let c = Arc::new(TraceCollector::deterministic(GpuArch::h100()));
        let id = profile::register_subscriber(c.clone());
        {
            let _r = profile::begin_region("collector-test");
            profile::note_kernel_launch("k-collector", 10);
            profile::note_instant(|| ("grew", 3.0));
            profile::note_counter(|| ("owned", 42.0));
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _r = profile::begin_region("rank7");
                profile::note_instant(|| ("halo_bytes", 128.0));
            });
        });
        profile::unregister_subscriber(id);

        // This thread's lane is named "host" (root region is not a rank
        // marker) and holds the nested event sequence with strictly
        // increasing ticks.
        let host = lane_named(&c, "host").expect("host lane");
        {
            let d = host.data.lock().unwrap();
            let ticks: Vec<f64> = d.events.iter().map(|e| e.ts_det).collect();
            assert!(
                ticks.windows(2).all(|w| w[0] < w[1]),
                "ticks not increasing"
            );
            assert!(d
                .events
                .iter()
                .any(|e| matches!(&e.kind, EventKind::Begin(n) if n == "collector-test")));
            assert!(d.events.iter().any(
                |e| matches!(&e.kind, EventKind::Launch { name, .. } if name == "k-collector")
            ));
        }
        // The worker thread's outermost region named its lane.
        let rank = lane_named(&c, "rank7").expect("rank lane");
        assert_eq!(rank.data.lock().unwrap().events.len(), 3); // B, i, E

        // Metrics: instants summed as counters, counter samples as
        // gauges + histograms.
        let dump = c.metrics().to_value().to_pretty();
        assert!(dump.contains("\"collector-test/grew\": 3"), "{dump}");
        assert!(dump.contains("\"rank7/halo_bytes\": 128"), "{dump}");
        assert!(dump.contains("\"collector-test/owned\": 42"), "{dump}");
    }

    #[test]
    fn device_lane_is_serialized_by_the_cursor() {
        let _serial = COLLECTOR_TEST_LOCK.lock().unwrap();
        let c = Arc::new(TraceCollector::deterministic(GpuArch::h100()));
        let id = profile::register_subscriber(c.clone());
        let log = profile::KernelLog::new();
        {
            let _r = profile::begin_region("dev-cursor-test");
            for _ in 0..3 {
                let mut s = KernelStats::new("k-dev");
                s.work_items = 1000.0;
                s.flops = 1e6;
                s.dram_bytes = 1e5;
                log.push(s);
            }
        }
        profile::unregister_subscriber(id);
        let host = lane_named(&c, "host").expect("host lane");
        let d = host.data.lock().unwrap();
        assert_eq!(d.device.len(), 3);
        for w in d.device.windows(2) {
            assert!(w[0].dur_us > 0.0);
            // Next start is at or after the previous end.
            assert!(w[1].ts_det >= w[0].ts_det + w[0].dur_us - 1e-9);
        }
    }

    #[test]
    fn flows_land_on_lanes_and_count_in_metrics() {
        let _serial = COLLECTOR_TEST_LOCK.lock().unwrap();
        let c = Arc::new(TraceCollector::deterministic(GpuArch::h100()));
        let id = profile::register_subscriber(c.clone());
        std::thread::scope(|s| {
            s.spawn(|| {
                let _r = profile::begin_region("rank0");
                profile::note_flow_begin(|| ("forward", 77));
            });
        });
        std::thread::scope(|s| {
            s.spawn(|| {
                let _r = profile::begin_region("rank1");
                profile::note_flow_end(|| ("forward", 77));
            });
        });
        profile::unregister_subscriber(id);
        let sender = lane_named(&c, "rank0").expect("sender lane");
        assert!(sender.data.lock().unwrap().events.iter().any(
            |e| matches!(&e.kind, EventKind::FlowBegin { name, id } if name == "forward" && *id == 77)
        ));
        let receiver = lane_named(&c, "rank1").expect("receiver lane");
        assert!(receiver.data.lock().unwrap().events.iter().any(
            |e| matches!(&e.kind, EventKind::FlowEnd { name, id } if name == "forward" && *id == 77)
        ));
        let m = c.metrics();
        assert_eq!(m.counter("rank0/comm.flow_out.forward"), Some(1.0));
        assert_eq!(m.counter("rank1/comm.flow_in.forward"), Some(1.0));
    }

    #[test]
    fn rank_root_detection() {
        assert!(is_rank_root("rank0"));
        assert!(is_rank_root("rank12"));
        assert!(!is_rank_root("rank"));
        assert!(!is_rank_root("ranks4"));
        assert!(!is_rank_root("step"));
        assert!(!is_rank_root(""));
        assert_eq!(leaf_of("step/pair/comm"), "comm");
        assert_eq!(root_of("step/pair/comm"), "step");
        assert_eq!(metrics_root(""), "host");
    }
}
