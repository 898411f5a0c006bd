//! The one capture: every smoke workload runs once, forced sequential,
//! under one [`StatsAccumulator`] and one fresh deterministic
//! [`TraceCollector`], and everything `perf-smoke` writes is rendered
//! from those two subscribers.
//!
//! Each workload gets its **own** collector: the critical-path analyzer
//! matches `step` spans by index per lane *name* and the metrics
//! registry keys by lane root, and both rank-parallel workloads spawn
//! lanes named `rank0`.., so a shared collector would splice two
//! unrelated runs into one fictitious one.
//!
//! Three renderings of a capture:
//!
//! * [`document`] — the canonical run document
//!   (`results/baseline.json` is the committed copy), one entry per
//!   workload with four sections: `summary` (sizes, energy, neighbor
//!   and exchange totals), `counters` (per-kernel event counts and the
//!   model's predicted device times), `metrics` (the collector's
//!   registry) and, on the rank-parallel workloads, `critical_path`.
//!   Every number is a counter or a pure function of counters; wall
//!   clock never enters, so two runs of one binary write the same bytes
//!   on any machine, and CI gates the file with a byte comparison.
//! * [`trace`] — one Perfetto timeline, a process group per workload.
//! * [`attribution_text`] — the per-rank attribution table for the
//!   terminal; advisory, never gated.

use crate::workloads::{RankWorkload, Workload};
use lkk_core::driver::MultiRankRun;
use lkk_gpusim::{AccumulatedProfile, GpuArch, KernelStats, RooflineClass, StatsAccumulator};
use lkk_kokkos::{exec, profile};
use lkk_trace::json::Value;
use lkk_trace::{CriticalPathReport, TraceCollector};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Document format version; bump when the shape changes (a bumped
/// schema fails the baseline check loudly instead of half-matching).
pub const SCHEMA_VERSION: f64 = 1.0;

/// Short keys for the per-architecture predicted-time map, in Table-1
/// row order (must stay in sync with `GpuArch::by_name`).
const ARCH_KEYS: [&str; 7] = ["v100", "a100", "h100", "gh200", "mi250x", "mi300a", "pvc"];

/// The profiling subscriber registry and the force-sequential flag are
/// process-global, so concurrent captures would cross-feed each other.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` under the global run exclusion with the executor forced
/// sequential — the discipline every capture here uses, and the one
/// integration tests that install their own profile subscriber (the
/// fault-abort trace audit in `tests/trace_schema.rs`) must follow so
/// they do not cross-feed a concurrent capture.
pub fn with_exclusive_run<T>(f: impl FnOnce() -> T) -> T {
    let _exclusive = RUN_LOCK
        .lock()
        .expect("an earlier capture panicked while holding the run lock");
    let was_sequential = exec::force_sequential();
    exec::set_force_sequential(true);
    let out = f();
    exec::set_force_sequential(was_sequential);
    out
}

/// One workload, captured once.
pub struct Capture {
    pub name: &'static str,
    summary: Value,
    counters: Value,
    /// The workload's own collector: its timeline and metrics registry.
    pub collector: Arc<TraceCollector>,
    /// Rank-parallel workloads only.
    pub critical_path: Option<CriticalPathReport>,
}

/// Capture all six smoke workloads in document order.
pub fn capture_all() -> Vec<Capture> {
    capture(crate::workloads::all(), crate::workloads::all_ranks())
}

/// Capture the given workloads, single-rank ones first. Tests pass a
/// subset to stay fast.
pub fn capture(single: Vec<Workload>, ranks: Vec<RankWorkload>) -> Vec<Capture> {
    with_exclusive_run(|| {
        let single = single.into_iter().map(capture_single);
        single.chain(ranks.into_iter().map(capture_ranks)).collect()
    })
}

/// Run `f` with a fresh accumulator and a fresh deterministic collector
/// subscribed.
fn observed<T>(f: impl FnOnce() -> T) -> (T, AccumulatedProfile, Arc<TraceCollector>) {
    let acc = Arc::new(StatsAccumulator::new());
    let collector = Arc::new(TraceCollector::deterministic(GpuArch::h100()));
    let acc_id = profile::register_subscriber(acc.clone());
    let collector_id = profile::register_subscriber(collector.clone());
    let out = f();
    profile::unregister_subscriber(collector_id);
    profile::unregister_subscriber(acc_id);
    (out, acc.snapshot(), collector)
}

fn capture_single(workload: Workload) -> Capture {
    let Workload {
        name,
        mut sim,
        steps,
    } = workload;
    let (e_total, snap, collector) = observed(|| {
        sim.run(steps);
        sim.total_energy()
    });

    let mut summary = Value::obj();
    summary.set("natoms", sim.system.atoms.nlocal);
    summary.set("steps", steps);
    summary.set("rebuilds", sim.rebuild_count);
    summary.set("e_total", e_total);
    // Neighbor-list shape (the list left in place after the run).
    let list = sim.neighbor_list();
    let mut neigh = Value::obj();
    neigh.set("total_pairs", list.total_pairs);
    neigh.set("avg_neighbors", list.avg_neighbors());
    summary.set("neighbor", neigh);

    Capture {
        name,
        summary,
        counters: render_counters(&snap),
        collector,
        critical_path: None,
    }
}

/// The exchange counters of a rank-parallel run, summed over ranks, in
/// render order. `pool_grow_after_warmup` is committed as 0: any
/// steady-state allocation in the exchange path fails the gate.
fn comm_entries(run: &MultiRankRun) -> [(&'static str, u64); 16] {
    let s = &run.comm_stats;
    [
        ("forward_bytes", s.forward_bytes),
        ("forward_msgs", s.forward_msgs),
        ("reverse_bytes", s.reverse_bytes),
        ("reverse_msgs", s.reverse_msgs),
        ("scalar_bytes", s.scalar_bytes),
        ("scalar_msgs", s.scalar_msgs),
        ("border_bytes", s.border_bytes),
        ("border_msgs", s.border_msgs),
        ("migrate_bytes", s.migrate_bytes),
        ("migrate_msgs", s.migrate_msgs),
        ("balance_bytes", s.balance_bytes),
        ("balance_msgs", s.balance_msgs),
        ("rebalances", s.rebalances),
        ("allreduce_count", s.allreduce_count),
        ("pool_grow", run.comm_grow),
        ("pool_grow_after_warmup", run.comm_grow_after_warmup),
    ]
}

/// Every field is deterministic — the exchanges are lockstep,
/// reductions combine in rank order, and pool reclaim waits for exact
/// counts. Kernel keys carry the per-rank region prefix
/// (`PairCompute@rank0/step/pair`).
fn capture_ranks(workload: RankWorkload) -> Capture {
    let RankWorkload {
        name,
        spec,
        factory,
    } = workload;
    let (run, snap, collector) = observed(|| {
        spec.run(factory)
            .expect("fault-free rank-parallel run failed")
    });

    let mut summary = Value::obj();
    summary.set("natoms", run.natoms);
    summary.set("nranks", run.nranks);
    summary.set("steps", run.steps);
    summary.set("warmup_steps", spec.warmup_steps);
    summary.set("rebuilds", run.rebuild_counts.iter().sum::<u64>());
    summary.set("e_total", run.e_pair + run.e_kinetic);
    // Peak owned-atoms over the run divided by the perfect share — a
    // pure function of the (deterministic) migration history.
    summary.set("atom_imbalance", run.atom_imbalance());
    let mut neigh = Value::obj();
    neigh.set("total_pairs", run.total_pairs);
    summary.set("neighbor", neigh);

    // The exchange counters and the ownership census go into the
    // summary and, keyed by workload, into the registry beside what the
    // collector recorded. Wall-clock quantities (`pair_time_imbalance`)
    // deliberately stay out.
    let metrics = collector.metrics();
    let mut comm = Value::obj();
    for (key, value) in comm_entries(&run) {
        comm.set(key, value);
        metrics.set_gauge(&format!("{name}/comm/{key}"), value as f64);
    }
    summary.set("comm", comm);
    for (rank, &owned) in run.owned_atoms.iter().enumerate() {
        metrics.set_gauge(&format!("{name}/rank{rank}/owned_atoms"), owned as f64);
        metrics.observe(&format!("{name}/owned_atoms"), owned as f64);
    }
    metrics.set_gauge(&format!("{name}/atom_imbalance"), run.atom_imbalance());

    Capture {
        name,
        summary,
        counters: render_counters(&snap),
        critical_path: Some(collector.critical_path()),
        collector,
    }
}

/// The accumulator's counters, common to every workload.
fn render_counters(snap: &AccumulatedProfile) -> Value {
    let mut out = Value::obj();

    // Per-kernel counters + model predictions, keyed "name@region",
    // sorted by the rendered key for a stable document.
    let mut kernels: Vec<(String, Value)> = snap
        .kernels
        .iter()
        .map(|k| (kernel_key(k), kernel_value(k)))
        .collect();
    kernels.sort_by(|a, b| a.0.cmp(&b.0));
    out.set("kernels", Value::Obj(kernels));

    // Dispatch counts per kernel label (includes host-side and
    // stats-free launches the kernel table does not cover).
    let mut launches = Value::obj();
    for (label, count) in &snap.launches {
        launches.set(label.clone(), *count);
    }
    out.set("launches", launches);

    // Region entry counts ("step", "step/pair", ...).
    let mut regions = Value::obj();
    for (path, count) in &snap.regions {
        regions.set(path.clone(), *count);
    }
    out.set("regions", regions);

    // Instant/counter samples (`name@region`) as {count, sum}. Includes
    // the SNAP contraction-table shape counters (`snap.table.*`):
    // `snap.table.builds` drifting above one launch-count's worth would
    // betray a mid-run table rebuild.
    let mut counters = Value::obj();
    for (key, (count, sum)) in &snap.counters {
        let mut c = Value::obj();
        c.set("count", *count);
        c.set("sum", *sum);
        counters.set(key.clone(), c);
    }
    out.set("counters", counters);

    // Host<->device traffic observed by the subscriber during the run.
    let mut transfers = Value::obj();
    transfers.set("h2d_bytes", snap.h2d.bytes);
    transfers.set("h2d_count", snap.h2d.count);
    transfers.set("d2h_bytes", snap.d2h.bytes);
    transfers.set("d2h_count", snap.d2h.count);
    out.set("transfers", transfers);

    // Whole-workload predicted time per architecture (sum of kernels).
    let mut totals = Value::obj();
    for key in ARCH_KEYS {
        let arch = GpuArch::by_name(key).expect("ARCH_KEYS out of sync with by_name");
        // fold, not sum: f64's Sum identity is -0.0, which would render
        // the kernel-free rank sections as "-0".
        let total: f64 = snap
            .kernels
            .iter()
            .fold(0.0, |acc, k| acc + k.time_on_default(&arch).seconds);
        totals.set(key, total * 1e6);
    }
    out.set("predicted_us_total", totals);
    out
}

fn kernel_key(k: &KernelStats) -> String {
    if k.region.is_empty() {
        k.name.clone()
    } else {
        format!("{}@{}", k.name, k.region)
    }
}

fn kernel_value(k: &KernelStats) -> Value {
    let mut v = Value::obj();
    v.set("launches", k.launches);
    v.set("work_items", k.work_items);
    v.set("flops", k.flops);
    v.set("dram_bytes", k.dram_bytes);
    v.set("reused_bytes", k.reused_bytes);
    v.set("l1_only_bytes", k.l1_only_bytes);
    v.set("atomic_f64_ops", k.atomic_f64_ops);
    v.set("scratch_bytes_per_team", k.scratch_bytes_per_team);

    // Model-derived (pure functions of the counters + arch tables).
    v.set(
        "roofline_h100",
        match k.roofline_on(&GpuArch::h100()).class {
            RooflineClass::MemoryBound => "memory",
            RooflineClass::ComputeBound => "compute",
            RooflineClass::LatencyBound => "latency",
        },
    );
    let mut predicted = Value::obj();
    for key in ARCH_KEYS {
        let arch = GpuArch::by_name(key).expect("ARCH_KEYS out of sync with by_name");
        predicted.set(key, k.time_on_default(&arch).seconds * 1e6);
    }
    v.set("predicted_us", predicted);
    v
}

/// The canonical run document over `captures`.
pub fn document(captures: &[Capture]) -> Value {
    let mut workloads = Value::obj();
    for cap in captures {
        let mut entry = Value::obj();
        entry.set("summary", cap.summary.clone());
        entry.set("counters", cap.counters.clone());
        entry.set("metrics", cap.collector.metrics().to_value());
        if let Some(report) = &cap.critical_path {
            entry.set("critical_path", report.to_value());
        }
        workloads.set(cap.name, entry);
    }
    let mut doc = Value::obj();
    doc.set("schema", SCHEMA_VERSION);
    doc.set("device", "h100");
    doc.set("workloads", workloads);
    doc
}

/// One Chrome `trace_event` document (open at <https://ui.perfetto.dev>):
/// a process group per workload. Single-rank workloads run on the
/// calling thread (lane `host`); the rank-parallel ones add a lane per
/// rank thread with the brick-comm phase spans; kernel launches on the
/// simulated device populate the group's device lanes with
/// cost-model-predicted durations.
pub fn trace(captures: &[Capture]) -> Value {
    let groups: Vec<(&str, &TraceCollector)> = captures
        .iter()
        .map(|cap| (cap.name, cap.collector.as_ref()))
        .collect();
    lkk_trace::export_chrome(&groups)
}

/// Shortest-round-trip rendering right-aligned in a fixed-width
/// column, matching the document's number format.
fn col(v: f64, width: usize) -> String {
    format!("{:>width$}", format!("{v}"))
}

/// The human-readable attribution summary of the rank-parallel
/// workloads: table per rank, flow counts by phase, the top
/// critical-path spans, and the `owned_atoms` histogram quantiles.
pub fn attribution_text(captures: &[Capture]) -> String {
    let mut out = String::new();
    for cap in captures {
        let Some(report) = &cap.critical_path else {
            continue;
        };
        let name = cap.name;
        let _ = writeln!(out, "== {name} ==");
        let pct = if report.total_time > 0.0 {
            100.0 * report.critical_time / report.total_time
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "  {} lanes, {} steps, clock {}; total {} {}, critical path {} ({pct:.1}%)",
            report.lanes.len(),
            report.nsteps,
            report.clock,
            report.total_time,
            report.clock,
            report.critical_time,
        );
        let tags: Vec<String> = report
            .flows_by_tag
            .iter()
            .map(|(tag, n)| format!("{tag} {n}"))
            .collect();
        let _ = writeln!(
            out,
            "  flows: {} complete, {} dangling ({})",
            report.flows_complete,
            report.flows_dangling,
            tags.join(", "),
        );
        let _ = writeln!(
            out,
            "  {:<8}{:>10}{:>10}{:>11}{:>9}{:>8}{:>8}{:>10}",
            "rank", "compute", "pack", "wire_wait", "unpack", "retry", "slack", "total"
        );
        for r in &report.ranks {
            let _ = writeln!(
                out,
                "  {:<8}{}{}{}{}{}{}{}",
                r.lane,
                col(r.compute, 10),
                col(r.pack, 10),
                col(r.wire_wait, 11),
                col(r.unpack, 9),
                col(r.retry, 8),
                col(r.slack, 8),
                col(r.total(), 10),
            );
        }
        let _ = writeln!(out, "  top critical-path spans:");
        for (i, s) in report.top_spans(5).iter().enumerate() {
            let _ = writeln!(
                out,
                "    {}. {} step {:>2} {:<24} {:<9} {}",
                i + 1,
                s.lane,
                s.step,
                s.name,
                s.bucket.name(),
                s.duration,
            );
        }
        let owned = cap
            .collector
            .metrics()
            .histogram(&format!("{name}/owned_atoms"));
        if let Some(h) = owned {
            let _ = writeln!(
                out,
                "  owned_atoms p50/p95/p99: {} / {} / {}",
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use lkk_trace::json;

    fn num(v: &Value, path: &[&str]) -> f64 {
        path.iter()
            .fold(v, |v, key| {
                v.get(key)
                    .unwrap_or_else(|| panic!("missing {key} of {path:?}"))
            })
            .as_f64()
            .unwrap_or_else(|| panic!("{path:?} is not a number"))
    }

    /// The full determinism + coverage test: two complete captures must
    /// render byte-identical documents and traces, each family must
    /// report its signature kernels, and the invariants the baseline
    /// pins (steady pools, a silent static decomposition, an engaged
    /// balancer under its gate, exact attribution) hold on the live
    /// capture.
    #[test]
    fn report_is_bit_stable_and_covers_all_families() {
        let caps = capture_all();
        let a = document(&caps).to_pretty();
        let again = capture_all();
        assert_eq!(a, document(&again).to_pretty(), "document not byte-stable");
        assert_eq!(
            trace(&caps).to_pretty(),
            trace(&again).to_pretty(),
            "trace not byte-stable"
        );

        for needle in [
            "PairCompute",
            "EAMForce",
            "ComputeUi@",
            "ComputeYi@",
            "QEqSpmvFused@",
            "BondOrderBuild@",
            "step/pair",
            "predicted_us",
            "roofline_h100",
            "snap.ui.flops@",
        ] {
            assert!(a.contains(needle), "document missing {needle}");
        }

        // Parseable, losslessly: the gate is a byte comparison.
        let doc = json::parse(&a).unwrap();
        assert_eq!(doc.to_pretty(), a);
        assert!(crate::diff::compare(&doc, &doc).is_empty());
        let wls = doc.get("workloads").unwrap();
        let Value::Obj(entries) = wls else {
            panic!("workloads is not an object")
        };
        let names: Vec<&str> = entries.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, ["lj", "eam", "snap", "reaxff", "ranks4", "skewed8"]);
        for (name, entry) in entries {
            for section in ["summary", "counters", "metrics"] {
                assert!(entry.get(section).is_some(), "{name}: no {section}");
            }
        }

        let lj = wls.get("lj").unwrap();
        assert_eq!(num(lj, &["summary", "natoms"]), 256.0);
        assert!(num(lj, &["counters", "transfers", "h2d_bytes"]) > 0.0);
        assert!(lj.get("critical_path").is_none());
        assert!(num(lj, &["metrics", "histograms", "step/owned_atoms", "count"]) > 0.0);

        // The SNAP contraction tables are built once per context and
        // their shapes are pinned: all five counters must be present in
        // both the accumulator's and the registry's view, and the
        // cumulative build count every step samples must still read 1
        // at the end — a mid-run rebuild would raise it.
        let snap = wls.get("snap").unwrap();
        for key in ["z_rows", "z_pairs", "y_rows", "y_pairs", "builds"] {
            let sample = format!("snap.table.{key}@step/pair/snap");
            assert_eq!(num(snap, &["counters", "counters", &sample, "count"]), 10.0);
            let gauge = format!("step/snap.table.{key}");
            assert!(num(snap, &["metrics", "gauges", &gauge]) > 0.0);
        }
        assert_eq!(
            num(snap, &["metrics", "gauges", "step/snap.table.builds"]),
            1.0,
            "snap tables rebuilt mid-run"
        );

        // The static decomposition must stay balance-silent so its
        // bytes don't drift, with steady pools.
        let ranks = wls.get("ranks4").unwrap();
        assert_eq!(num(ranks, &["summary", "nranks"]), 4.0);
        assert!(num(ranks, &["summary", "comm", "forward_msgs"]) > 0.0);
        assert_eq!(num(ranks, &["summary", "comm", "balance_msgs"]), 0.0);
        assert_eq!(num(ranks, &["summary", "comm", "balance_bytes"]), 0.0);
        assert_eq!(num(ranks, &["summary", "comm", "rebalances"]), 0.0);

        // The load-balancer smoke: the balancer engaged and pulled the
        // peak imbalance under the gate.
        let skewed = wls.get("skewed8").unwrap();
        assert_eq!(num(skewed, &["summary", "nranks"]), 8.0);
        assert!(num(skewed, &["summary", "comm", "rebalances"]) > 0.0);
        assert!(num(skewed, &["summary", "comm", "balance_msgs"]) > 0.0);
        assert!(num(skewed, &["summary", "comm", "balance_bytes"]) > 0.0);
        let imbalance = num(skewed, &["summary", "atom_imbalance"]);
        assert!(
            imbalance <= 1.15,
            "skewed8 peak imbalance {imbalance} above the 1.15 gate"
        );

        for (wl, nranks) in [("ranks4", 4), ("skewed8", 8)] {
            let entry = wls.get(wl).unwrap();
            assert_eq!(
                num(entry, &["summary", "comm", "pool_grow_after_warmup"]),
                0.0,
                "{wl}: steady-state exchange allocated"
            );

            // The registry carries the same exchange counters and the
            // per-rank census, keyed by workload, beside per-rank keys
            // that belong to this run alone.
            let gauges = entry.get("metrics").unwrap().get("gauges").unwrap();
            for (key, value) in [
                (
                    "comm/forward_bytes",
                    num(entry, &["summary", "comm", "forward_bytes"]),
                ),
                ("comm/pool_grow_after_warmup", 0.0),
                ("atom_imbalance", num(entry, &["summary", "atom_imbalance"])),
            ] {
                assert_eq!(num(gauges, &[&format!("{wl}/{key}")]), value, "{wl}/{key}");
            }
            let last = format!("{wl}/rank{}/owned_atoms", nranks - 1);
            assert!(num(gauges, &[&last]) > 0.0);
            assert!(gauges
                .get(&format!("{wl}/rank{nranks}/owned_atoms"))
                .is_none());
            assert!(gauges.get(&format!("rank{nranks}/owned_atoms")).is_none());
            let census = format!("{wl}/owned_atoms");
            assert_eq!(
                num(entry, &["metrics", "histograms", &census, "count"]),
                nranks as f64
            );
            let fwd: f64 = match entry.get("metrics").unwrap().get("counters").unwrap() {
                Value::Obj(counters) => counters
                    .iter()
                    .filter(|(key, _)| key.contains("/fwd_bytes->"))
                    .map(|(_, v)| v.as_f64().unwrap())
                    .sum(),
                _ => panic!("{wl}: counters is not an object"),
            };
            assert_eq!(
                fwd,
                num(entry, &["summary", "comm", "forward_bytes"]),
                "{wl}: per-edge forward bytes do not add up to the run's"
            );

            // Attribution: every row sums to the run total (the
            // analyzer's exactness contract, re-checked at the harness
            // level), no retry time without faults, no dangling flow.
            // No `critical <= total` bound: per-lane tick clocks are
            // unaligned, so a cross-lane path can outweigh the slowest
            // lane (see `CriticalPathReport::critical_time`).
            let cp = entry.get("critical_path").unwrap();
            assert_eq!(cp.get("clock").and_then(Value::as_str), Some("ticks"));
            let total = num(cp, &["total_time"]);
            assert!(total > 0.0, "{wl}: empty run");
            assert!(
                num(cp, &["critical_time"]) > 0.0,
                "{wl}: empty critical path"
            );
            assert!(num(cp, &["flows", "complete"]) > 0.0);
            assert_eq!(num(cp, &["flows", "dangling"]), 0.0);
            let Some(Value::Obj(rows)) = cp.get("ranks") else {
                panic!("{wl}: ranks not an object");
            };
            assert_eq!(rows.len(), nranks);
            for (lane, row) in rows {
                let sum: f64 = ["compute", "pack", "wire_wait", "unpack", "retry", "slack"]
                    .iter()
                    .map(|k| num(row, &[k]))
                    .sum();
                assert_eq!(sum, num(row, &["total"]), "{wl}/{lane}: buckets vs total");
                assert_eq!(
                    num(row, &["total"]),
                    total,
                    "{wl}/{lane}: rank vs run total"
                );
                assert_eq!(
                    num(row, &["retry"]),
                    0.0,
                    "{wl}/{lane}: retry without faults"
                );
            }
        }

        // The trace: a process group per workload, rank lanes and comm
        // phases in the rank groups, predicted device lanes in lj's.
        let timeline = trace(&caps).to_pretty();
        for needle in [
            "\"lj: host\"",
            "\"lj: gpusim NVIDIA H100 (predicted)\"",
            "\"ranks4: host\"",
            "\"skewed8: host\"",
            "\"rank7\"",
            "\"name\": \"pack\"",
            "\"name\": \"unpack\"",
            "\"cat\": \"ranks4: comm\"",
            "\"clock\": \"ticks\"",
        ] {
            assert!(timeline.contains(needle), "trace missing {needle}");
        }

        let text = attribution_text(&caps);
        for needle in [
            "== ranks4 ==",
            "== skewed8 ==",
            "wire_wait",
            "owned_atoms p50/p95/p99",
        ] {
            assert!(text.contains(needle), "attribution text missing {needle:?}");
        }
    }

    /// The parser regression the quadratic `parse_string` motivated: a
    /// full `--trace` export of `lj` + `ranks4` (about a megabyte of
    /// mostly short strings) parses in well under a second and
    /// re-renders to the same bytes.
    #[test]
    fn trace_export_parses_fast_and_round_trips() {
        let caps = capture(vec![workloads::lj()], vec![workloads::ranks4()]);
        let text = trace(&caps).to_pretty();
        assert!(
            text.len() > 500_000,
            "trace export only {} bytes",
            text.len()
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "test-only bound on how long parsing a full trace export may take (the regression test for the once-quadratic string parser); no captured or rendered byte depends on it"
        )]
        let start = std::time::Instant::now();
        let parsed = json::parse(&text).expect("trace export is not valid JSON");
        let elapsed = start.elapsed();
        assert!(elapsed.as_secs_f64() < 0.5, "parsing took {elapsed:?}");
        assert_eq!(parsed.to_pretty(), text);
    }
}
