//! Schema validation of the `lkk-trace` Chrome trace_event export and
//! byte-stability of the canonical metrics dump.
//!
//! The capture used here is the fast subset of the perf-smoke suite
//! (LJ single-rank plus the `ranks4` rank-parallel workload, each under
//! its own collector) — the same code path `perf-smoke --trace` runs in
//! CI, and the contract this test pins down:
//!
//! 1. the export is valid JSON with a `traceEvents` array;
//! 2. every lane (`(pid, tid)` pair) has nondecreasing timestamps;
//! 3. `B`/`E` span events are balanced per lane and properly nested;
//! 4. one host lane per simulated rank (`rank0`..`rank3`) plus at
//!    least one simulated-device lane is present;
//! 5. two captures of the same workload produce byte-identical traces
//!    and metrics dumps (the determinism CI's byte-gate relies on);
//! 6. every cross-rank flow id binds exactly one `s` event to one `f`
//!    event on two different lanes — fault-free and under recoverable
//!    fault injection with retransmissions — and the critical-path
//!    report's attribution buckets tile each rank's time exactly.

use lkk_perf::capture::{capture, with_exclusive_run};
use lkk_perf::workloads;
use lkk_trace::json::{self, Value};
use std::collections::BTreeMap;

/// The fast capture, each workload's collector exported on its own.
struct Smoke {
    lj_trace: String,
    ranks4_trace: String,
    ranks4_metrics: String,
}

fn smoke() -> Smoke {
    let caps = capture(vec![workloads::lj()], vec![workloads::ranks4()]);
    Smoke {
        lj_trace: caps[0].collector.export_chrome(),
        ranks4_trace: caps[1].collector.export_chrome(),
        ranks4_metrics: caps[1].collector.metrics().to_value().to_pretty(),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

#[test]
fn trace_event_export_is_schema_valid_and_deterministic() {
    let a = smoke();
    let b = smoke();
    assert_eq!(a.lj_trace, b.lj_trace, "trace not byte-stable");
    assert_eq!(a.ranks4_trace, b.ranks4_trace, "trace not byte-stable");
    assert_eq!(
        a.ranks4_metrics, b.ranks4_metrics,
        "metrics not byte-stable"
    );

    let mut lane_names: Vec<(usize, String)> = Vec::new();
    let mut device_complete = 0usize;
    for chrome_json in [&a.lj_trace, &a.ranks4_trace] {
        let doc = json::parse(chrome_json).expect("trace is not valid JSON");
        let Some(Value::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing or not an array");
        };
        assert!(!events.is_empty());

        let mut last_ts: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let mut open: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();

        for ev in events {
            let ph = str_of(ev.get("ph").expect("event without ph"));
            let pid = ev.get("pid").and_then(Value::as_f64).expect("pid") as usize;
            let tid = ev.get("tid").and_then(Value::as_f64).expect("tid") as usize;
            let name = str_of(ev.get("name").expect("event without name")).to_string();
            match ph {
                "M" => {
                    if name == "thread_name" {
                        let lane = str_of(ev.get("args").unwrap().get("name").unwrap());
                        lane_names.push((pid, lane.to_string()));
                    }
                }
                "B" | "E" | "X" | "i" | "C" | "s" | "f" => {
                    let ts = ev.get("ts").and_then(Value::as_f64).expect("ts");
                    let key = (pid, tid);
                    let prev = last_ts.insert(key, ts).unwrap_or(f64::NEG_INFINITY);
                    assert!(
                        ts >= prev,
                        "timestamps regress on lane {key:?}: {prev} -> {ts}"
                    );
                    match ph {
                        "B" => open.entry(key).or_default().push(name),
                        "E" => {
                            let top =
                                open.entry(key).or_default().pop().unwrap_or_else(|| {
                                    panic!("unbalanced E {name:?} on lane {key:?}")
                                });
                            assert_eq!(top, name, "mis-nested span on lane {key:?}");
                        }
                        "X" => {
                            assert_eq!(pid, 1, "complete events only on the device process");
                            assert!(
                                ev.get("dur").and_then(Value::as_f64).unwrap_or(-1.0) >= 0.0,
                                "X event without a duration"
                            );
                            device_complete += 1;
                        }
                        _ => {}
                    }
                }
                other => panic!("unexpected phase {other:?}"),
            }
        }

        for (lane, stack) in &open {
            assert!(stack.is_empty(), "lane {lane:?} left spans open: {stack:?}");
        }
    }
    for rank in 0..4 {
        let want = format!("rank{rank}");
        assert!(
            lane_names.iter().any(|(pid, n)| *pid == 0 && *n == want),
            "missing host lane {want}; lanes: {lane_names:?}"
        );
    }
    assert!(
        lane_names.iter().any(|(pid, _)| *pid == 1),
        "no simulated-device lane; lanes: {lane_names:?}"
    );
    assert!(device_complete > 0, "no predicted device events");

    // The comm-phase spans from the brick layer made it to the rank
    // lanes (gated instrumentation actually fired under the collector).
    for needle in ["\"pack\"", "\"unpack\"", "\"recv\""] {
        assert!(
            a.ranks4_trace.contains(needle),
            "trace missing comm phase {needle}"
        );
    }

    // The rank workloads stamp every exchange with a flow pair.
    let nflows = assert_flow_pairing(&a.ranks4_trace);
    assert!(nflows > 0, "no flow events in the rank-parallel capture");
}

/// Parse a Chrome trace export and assert the flow-event contract:
/// every flow id appears exactly once as `s` and once as `f`, on two
/// *different* lanes (a message never flows to its own sender), with
/// `cat: "comm"`. Returns the number of distinct flow ids.
fn assert_flow_pairing(chrome_json: &str) -> usize {
    let doc = json::parse(chrome_json).expect("trace is not valid JSON");
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing or not an array");
    };
    // id → (`s` lanes, `f` lanes), each lane a `(pid, tid)` pair.
    type Lane = (usize, usize);
    let mut flows: BTreeMap<u64, (Vec<Lane>, Vec<Lane>)> = BTreeMap::new();
    for ev in events {
        let ph = str_of(ev.get("ph").expect("event without ph"));
        if ph != "s" && ph != "f" {
            continue;
        }
        let pid = ev.get("pid").and_then(Value::as_f64).expect("pid") as usize;
        let tid = ev.get("tid").and_then(Value::as_f64).expect("tid") as usize;
        // Hex string, not a number: the id uses all 64 bits.
        let id = str_of(ev.get("id").expect("flow without id"));
        let id = u64::from_str_radix(id.strip_prefix("0x").expect("flow id is not hex"), 16)
            .expect("flow id is not hex");
        assert_eq!(
            ev.get("cat").map(str_of),
            Some("comm"),
            "flow event without cat: comm"
        );
        let entry = flows.entry(id).or_default();
        if ph == "s" {
            entry.0.push((pid, tid));
        } else {
            assert_eq!(
                ev.get("bp").map(str_of),
                Some("e"),
                "flow end without bp: e"
            );
            entry.1.push((pid, tid));
        }
    }
    for (id, (starts, finishes)) in &flows {
        assert_eq!(starts.len(), 1, "flow {id:#x} has {} starts", starts.len());
        assert_eq!(
            finishes.len(),
            1,
            "flow {id:#x} has {} finishes",
            finishes.len()
        );
        assert_ne!(
            starts[0], finishes[0],
            "flow {id:#x} starts and finishes on the same lane"
        );
    }
    flows.len()
}

#[test]
fn metrics_dump_parses_and_carries_the_rank_census() {
    let doc = json::parse(&smoke().ranks4_metrics).expect("metrics dump is not valid JSON");
    assert_eq!(doc.get("schema").and_then(Value::as_f64), Some(1.0));

    let gauges = doc.get("gauges").expect("gauges section");
    for rank in 0..4 {
        let key = format!("ranks4/rank{rank}/owned_atoms");
        assert!(
            gauges.get(&key).and_then(Value::as_f64).unwrap_or(0.0) > 0.0,
            "missing per-rank census gauge {key}"
        );
    }
    assert!(gauges.get("ranks4/atom_imbalance").and_then(Value::as_f64) >= Some(1.0));
    assert_eq!(
        gauges
            .get("ranks4/comm/pool_grow_after_warmup")
            .and_then(Value::as_f64),
        Some(0.0),
        "steady-state exchange allocated"
    );

    // The histogram of per-rank ownership has one observation per rank.
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get("ranks4/owned_atoms"))
        .expect("ownership histogram");
    assert_eq!(hist.get("count").and_then(Value::as_f64), Some(4.0));
}

/// The fissioned SNAP pipeline must surface its three stages as
/// distinct spans in the timeline (ISSUE 7: "ComputeUi / ComputeYi /
/// ComputeDeidrj appear as distinct spans in the Perfetto trace"), and
/// the contraction-table shape counters must land in the metrics dump.
#[test]
fn snap_stage_fission_emits_distinct_spans() {
    let caps = capture(vec![workloads::snap()], Vec::new());
    let doc = json::parse(&caps[0].collector.export_chrome()).expect("trace is not valid JSON");
    let metrics_json = caps[0].collector.metrics().to_value().to_pretty();
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing or not an array");
    };
    for stage in ["ComputeUi", "ComputeYi", "ComputeDeidrj"] {
        let begins = events
            .iter()
            .filter(|ev| {
                ev.get("ph").map(str_of) == Some("B") && ev.get("name").map(str_of) == Some(stage)
            })
            .count();
        assert!(begins > 0, "no B span named {stage} in the snap trace");
    }
    for counter in [
        "snap.table.z_rows",
        "snap.table.z_pairs",
        "snap.table.y_rows",
        "snap.table.y_pairs",
        "snap.table.builds",
    ] {
        assert!(
            metrics_json.contains(counter),
            "metrics dump missing {counter}"
        );
    }
}

/// Parse a Chrome trace export and assert every lane's `B`/`E` spans
/// are balanced and properly nested. Returns the thread-lane names.
fn assert_balanced_lanes(chrome_json: &str) -> Vec<String> {
    let doc = json::parse(chrome_json).expect("trace is not valid JSON");
    let Some(Value::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents missing or not an array");
    };
    let mut lanes = Vec::new();
    let mut open: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
    for ev in events {
        let ph = str_of(ev.get("ph").expect("event without ph"));
        let pid = ev.get("pid").and_then(Value::as_f64).expect("pid") as usize;
        let tid = ev.get("tid").and_then(Value::as_f64).expect("tid") as usize;
        let name = str_of(ev.get("name").expect("event without name")).to_string();
        match ph {
            "M" if name == "thread_name" => {
                lanes.push(str_of(ev.get("args").unwrap().get("name").unwrap()).to_string());
            }
            "B" => open.entry((pid, tid)).or_default().push(name),
            "E" => {
                let top = open
                    .entry((pid, tid))
                    .or_default()
                    .pop()
                    .unwrap_or_else(|| panic!("unbalanced E {name:?} on lane ({pid},{tid})"));
                assert_eq!(top, name, "mis-nested span on lane ({pid},{tid})");
            }
            _ => {}
        }
    }
    for (lane, stack) in &open {
        assert!(
            stack.is_empty(),
            "lane {lane:?} left spans open after abort: {stack:?}"
        );
    }
    lanes
}

/// A mid-phase communication abort (unrecoverable dead edge) must not
/// leave dangling `B` events on any rank lane: every `RegionGuard` on
/// the error path unwinds through `?`, closing its span, on every rank
/// — the fault-path audit of the trace layer.
#[test]
fn comm_abort_leaves_balanced_spans_on_every_rank_lane() {
    use lkk_core::prelude::FaultConfig;
    use lkk_kokkos::profile;
    use std::sync::Arc;

    let (chrome, metrics) = with_exclusive_run(|| {
        let collector = Arc::new(lkk_trace::TraceCollector::deterministic(
            lkk_gpusim::GpuArch::h100(),
        ));
        let id = profile::register_subscriber(collector.clone());
        let ranks = workloads::ranks4();
        let mut spec = ranks.spec.clone();
        spec.fault = Some(FaultConfig::unrecoverable(7, 0, 1, 0));
        let result = spec.run(ranks.factory);
        profile::unregister_subscriber(id);
        assert!(result.is_err(), "run with a dead edge completed");
        (
            collector.export_chrome(),
            collector.metrics().to_value().to_pretty(),
        )
    });

    let lanes = assert_balanced_lanes(&chrome);
    for rank in 0..4 {
        let want = format!("rank{rank}");
        assert!(
            lanes.contains(&want),
            "missing rank lane {want} in aborted capture; lanes: {lanes:?}"
        );
    }
    // The abort left its diagnostics in the metrics registry.
    assert!(
        metrics.contains("comm.fault.abort"),
        "abort instant missing from metrics: {metrics}"
    );
    assert!(
        metrics.contains("comm.fault.timeout"),
        "timeout counter missing from metrics: {metrics}"
    );
}

/// Same audit for the panic path: a rank that panics outright (here at
/// factory time) tears down the run via `RankPanicked` + peer
/// disconnects, and every surviving rank's unwind must still close its
/// open spans.
#[test]
fn rank_panic_leaves_balanced_spans_on_surviving_lanes() {
    use lkk_core::prelude::CommError;
    use lkk_kokkos::profile;
    use std::sync::Arc;

    let chrome = with_exclusive_run(|| {
        let collector = Arc::new(lkk_trace::TraceCollector::deterministic(
            lkk_gpusim::GpuArch::h100(),
        ));
        let id = profile::register_subscriber(collector.clone());
        let ranks = workloads::ranks4();
        let factory = ranks.factory;
        // Quiet the expected panic's default backtrace spew.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = ranks.spec.run(move |rank, system| {
            if rank == 2 {
                panic!("injected test panic");
            }
            factory(rank, system)
        });
        std::panic::set_hook(prev_hook);
        profile::unregister_subscriber(id);
        let failure = result.expect_err("run with a panicking rank completed");
        assert!(
            failure.errors.iter().any(|(rank, err)| *rank == 2
                && matches!(err, CommError::RankPanicked { message, .. }
                    if message.contains("injected test panic"))),
            "panic not surfaced as RankPanicked: {failure}"
        );
        collector.export_chrome()
    });
    assert_balanced_lanes(&chrome);
}

/// Under recoverable fault injection the recovery layer retransmits,
/// reorders, and duplicates envelopes — but a retransmission reuses the
/// original `(edge, tag, seq)` identity, duplicate deliveries are
/// discarded before the flow end fires, and dropped copies simply delay
/// it. So even a faulted timeline must keep every exported flow id
/// singly bound (one `s`, one `f`, different lanes), with spans still
/// balanced on every rank lane.
#[test]
fn faulted_runs_keep_flows_singly_bound_across_retransmissions() {
    use lkk_core::prelude::FaultConfig;
    use lkk_kokkos::profile;
    use std::sync::Arc;

    let mut saw_retransmit = false;
    for seed in [1u64, 2, 3] {
        let (chrome, metrics) = with_exclusive_run(|| {
            let collector = Arc::new(lkk_trace::TraceCollector::deterministic(
                lkk_gpusim::GpuArch::h100(),
            ));
            let id = profile::register_subscriber(collector.clone());
            let ranks = workloads::ranks4();
            let mut spec = ranks.spec.clone();
            spec.fault = Some(FaultConfig::recoverable(seed));
            let run = spec.run(ranks.factory);
            profile::unregister_subscriber(id);
            run.expect("recoverable faulted run failed");
            (
                collector.export_chrome(),
                collector.metrics().to_value().to_pretty(),
            )
        });
        assert_balanced_lanes(&chrome);
        let nflows = assert_flow_pairing(&chrome);
        assert!(nflows > 0, "seed {seed}: no flows in faulted capture");
        assert!(
            metrics.contains("comm.fault."),
            "seed {seed}: no faults injected — sweep is vacuous"
        );
        saw_retransmit |= metrics.contains("comm.fault.retransmit");
    }
    assert!(
        saw_retransmit,
        "no seed in the sweep produced a retransmission; pick other seeds"
    );
}

/// The critical-path analyzer's exactness contract over a real
/// rank-parallel run: on every rank the six attribution buckets sum to
/// the run's total step time identically, and the canonical report is
/// byte-stable across two captures in deterministic mode (what the
/// `perf-smoke --check` byte-gate relies on).
#[test]
fn critical_path_buckets_tile_rank_time_and_report_is_byte_stable() {
    use lkk_kokkos::profile;
    use std::sync::Arc;

    let capture = || {
        with_exclusive_run(|| {
            let collector = Arc::new(lkk_trace::TraceCollector::deterministic(
                lkk_gpusim::GpuArch::h100(),
            ));
            let id = profile::register_subscriber(collector.clone());
            let ranks = workloads::ranks4();
            let run = ranks.spec.run(ranks.factory);
            profile::unregister_subscriber(id);
            run.expect("fault-free rank-parallel run failed");
            collector.critical_path()
        })
    };

    let report = capture();
    assert_eq!(report.lanes.len(), 4);
    assert!(report.nsteps > 0);
    assert!(report.flows_complete > 0);
    assert_eq!(report.flows_dangling, 0, "dangling flows in a clean run");
    for rank in &report.ranks {
        let sum: f64 = rank.entries().iter().map(|(_, v)| *v).sum();
        assert_eq!(
            sum, report.total_time,
            "{}: buckets do not tile the run's step time",
            rank.lane
        );
        assert_eq!(sum, rank.total(), "{}: entries() != total()", rank.lane);
        assert_eq!(rank.retry, 0.0, "{}: retry time without faults", rank.lane);
    }
    // Every step's critical path is non-empty and its weight matches
    // the sum of its spans.
    for step in &report.steps {
        assert!(
            !step.path.is_empty(),
            "step {} has an empty path",
            step.index
        );
        let w: f64 = step.path.iter().map(|s| s.duration).sum();
        assert_eq!(
            w, step.critical,
            "step {}: path weight mismatch",
            step.index
        );
    }

    let again = capture();
    assert_eq!(
        report.to_value().to_pretty(),
        again.to_value().to_pretty(),
        "critical-path report not byte-stable in deterministic mode"
    );
}
