//! `lkk-trace`: the trace timeline + metrics layer of the stack.
//!
//! The profiling layer in `lkk-kokkos` emits a flat event stream
//! (regions, kernel launches, kernel stats, transfers, instants,
//! counter samples) to any registered
//! [`lkk_gpusim::ProfileSubscriber`]. The `perf-smoke` harness consumes
//! that stream as *aggregates*; this crate consumes it as a
//! *timeline* — the analogue of attaching a Kokkos Tools tracing
//! library (space-time-stack, the Perfetto connector) to a LAMMPS-KOKKOS
//! run.
//!
//! Four pieces:
//!
//! * [`TraceCollector`] — a subscriber that appends every event to a
//!   per-thread lane buffer. Each event carries **two** timestamps: a
//!   wall-clock microsecond offset (for humans) and a deterministic
//!   per-lane logical tick (for CI). Rank worker threads (outermost
//!   region `rank<N>`) get their own named lanes; everything else lands
//!   on the `host` lane of its thread.
//! * [`MetricsRegistry`] — counters, gauges, and log₂-bucketed
//!   histograms with a canonical sorted-key dump, byte-stable in
//!   deterministic runs. The collector feeds it automatically: instant
//!   events sum into counters, counter samples set gauges and feed
//!   histograms.
//! * [`export_chrome`] — a Chrome `trace_event` exporter
//!   ([`TraceCollector::export_chrome`] for one collector). The file
//!   loads directly in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`: one lane per rank thread under a `host`
//!   process, plus synthetic *simulated device* lanes whose kernel
//!   durations come from the `lkk-gpusim` cost model, so predicted
//!   device time renders next to the host phases that launched it.
//! * [`json`] — the workspace's one JSON [`json::Value`], canonical
//!   writer and parser. The metrics dump, the critical-path report and
//!   the Chrome export are all built as `Value`s; `lkk-perf` builds its
//!   run document from the same type.
//!
//! Determinism contract: in [`TraceMode::Deterministic`], with
//! `lkk_kokkos::exec::set_force_sequential(true)` and the same
//! workload, the exported trace and metrics dump are byte-identical
//! across runs — each lane's tick clock counts only that lane's own
//! events, so concurrent rank threads cannot perturb each other's
//! timestamps, and lanes are sorted by name at export. Cross-lane
//! interleaving is deliberately *not* represented in that mode; use
//! [`TraceMode::Wall`] when you want a human-readable timeline.

mod chrome;
mod collector;
mod critical_path;
pub mod json;
mod metrics;

pub use chrome::export_chrome;
pub use collector::{TraceCollector, TraceMode};
pub use critical_path::{Bucket, CriticalPathReport, PathSpan, RankAttribution, StepSummary};
pub use metrics::{HistogramSnapshot, MetricsRegistry};
