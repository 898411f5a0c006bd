//! Chrome `trace_event` JSON export.
//!
//! The output is the "JSON Object Format" of the trace_event spec: a
//! top-level object with a `traceEvents` array, loadable in Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`. Layout per
//! collector (a document over several collectors repeats it with the
//! next pair of pids, see [`export_chrome`]):
//!
//! * `pid 0` — the **host** process: one `tid` per lane (rank threads
//!   `rank0`, `rank1`, ... and `host` for everything else), carrying
//!   region spans (`B`/`E`), kernel-launch instants, point events, and
//!   cumulative counter tracks.
//! * `pid 1` — the **simulated device**: one `tid` per host lane that
//!   recorded kernel stats, carrying complete (`X`) events whose
//!   durations are the `lkk-gpusim` cost-model predictions.
//!
//! Lanes are emitted sorted by name, and every span stream is repaired
//! to be balanced (unmatched `E` events are dropped, still-open spans
//! get synthetic `E`s at the lane's final timestamp), so the schema
//! check in `tests/trace_schema.rs` can require balance uncondition-
//! ally.
//!
//! Cross-lane message flows are rendered as Perfetto flow events: a
//! `ph: "s"` on the sender lane bound to the enclosing span and the
//! matching `ph: "f"` (with `bp: "e"`) on the receiver lane, sharing a
//! `cat`/`id` pair. A pre-pass scans every lane and only ids with
//! exactly one recorded begin *and* one recorded end are emitted — an
//! envelope lost to a dead edge leaves a dangling begin, which is
//! dropped so the exported `s`/`f` pairs stay balanced unconditionally
//! too.

use crate::collector::{Event, EventKind, TraceCollector, TraceMode};
use crate::json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// One Chrome `trace_event` document over several collectors. Group `g`
/// gets its own pair of processes — host lanes under `pid 2g`, simulated
/// device lanes under `pid 2g + 1`, both named after the group's label —
/// and its own flow category, so lanes and flow ids that recur between
/// groups (every rank-parallel run has a `rank0`) stay apart. The
/// header's `arch` and `clock` are the first group's.
pub fn export_chrome(groups: &[(&str, &TraceCollector)]) -> Value {
    let mut events = Vec::new();
    for (g, (label, collector)) in groups.iter().enumerate() {
        collector.chrome_events(label, 2 * g, &mut events);
    }
    let mut other = Value::obj();
    other.set("generator", "lkk-trace");
    if let Some((_, first)) = groups.first() {
        other.set("arch", first.arch_name());
        other.set("clock", first.mode().clock());
    }
    let mut doc = Value::obj();
    doc.set("displayTimeUnit", "ms");
    doc.set("otherData", other);
    doc.set("traceEvents", Value::Arr(events));
    doc
}

impl TraceCollector {
    /// Render this collector's timeline alone as Chrome `trace_event`
    /// JSON (host process `pid 0`, simulated device `pid 1`).
    pub fn export_chrome(&self) -> String {
        export_chrome(&[("", self)]).to_pretty()
    }

    /// Append this collector's events: host lanes under process `pid`,
    /// device lanes under `pid + 1`.
    fn chrome_events(&self, label: &str, pid: usize, out: &mut Vec<Value>) {
        let mode = self.mode();
        let lanes = self.sorted_lanes();
        let labelled = |what: &str| match label {
            "" => what.to_string(),
            _ => format!("{label}: {what}"),
        };
        let flow_cat = labelled("comm");

        // Flow pre-pass: an id is renderable only when the collector saw
        // exactly one begin and one end for it (anything else is a
        // truncated or torn flow; emitting it would unbalance the pairs).
        let mut flow_counts: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for lane in &lanes {
            let d = lane.data.lock().unwrap();
            for ev in &d.events {
                match &ev.kind {
                    EventKind::FlowBegin { id, .. } => flow_counts.entry(*id).or_default().0 += 1,
                    EventKind::FlowEnd { id, .. } => flow_counts.entry(*id).or_default().1 += 1,
                    _ => {}
                }
            }
        }
        let complete_flows: BTreeSet<u64> = flow_counts
            .iter()
            .filter(|(_, counts)| **counts == (1, 1))
            .map(|(id, _)| *id)
            .collect();

        out.push(meta("process_name", pid, 0, &labelled("host")));
        if lanes
            .iter()
            .any(|l| !l.data.lock().unwrap().device.is_empty())
        {
            let name = format!("gpusim {} (predicted)", self.arch_name());
            out.push(meta("process_name", pid + 1, 0, &labelled(&name)));
        }

        for (tid, lane) in lanes.iter().enumerate() {
            let d = lane.data.lock().unwrap();
            out.push(meta("thread_name", pid, tid, &d.name));
            host_events(&d.events, mode, (pid, tid), &flow_cat, &complete_flows, out);
            if !d.device.is_empty() {
                out.push(meta(
                    "thread_name",
                    pid + 1,
                    tid,
                    &format!("{} device", d.name),
                ));
                for ev in &d.device {
                    let ts = mode.pick(ev.ts_det, ev.ts_wall);
                    let mut x = event("X", &ev.name, (pid + 1, tid), ts);
                    x.set("dur", ev.dur_us);
                    out.push(x);
                }
            }
        }
    }
}

/// Render one lane's host events, repairing span balance: an `E` with
/// no open span is dropped; spans still open at the end are closed at
/// one past the lane's final timestamp. Flow events are emitted only
/// for ids in `complete_flows` (exactly one begin + one end recorded).
fn host_events(
    events: &[Event],
    mode: TraceMode,
    lane: (usize, usize),
    flow_cat: &str,
    complete_flows: &BTreeSet<u64>,
    out: &mut Vec<Value>,
) {
    let mut open: Vec<&str> = Vec::new();
    let mut last_ts = 0.0_f64;
    for ev in events {
        let ts = mode.pick(ev.ts_det, ev.ts_wall);
        last_ts = last_ts.max(ts);
        match &ev.kind {
            EventKind::Begin(name) => {
                open.push(name);
                out.push(event("B", name, lane, ts));
            }
            EventKind::End(name) => {
                if open.pop().is_some() {
                    out.push(event("E", name, lane, ts));
                }
            }
            EventKind::Instant { name, value } => {
                out.push(arg_event("i", name, "value", *value, lane, ts));
            }
            EventKind::Counter { name, value } => {
                out.push(arg_event("C", name, "value", *value, lane, ts));
            }
            EventKind::Launch { name, work_items } => {
                out.push(arg_event("i", name, "work_items", *work_items, lane, ts));
            }
            EventKind::FlowBegin { name, id } | EventKind::FlowEnd { name, id } => {
                if complete_flows.contains(id) {
                    // The `f` side carries `"bp": "e"` so the arrow ends
                    // at the *enclosing slice* rather than the next one
                    // (the trace_event "binding point" rule). The id is a
                    // hex string: it uses all 64 bits, and a JSON number
                    // is only exact up to 2⁵³ in most readers.
                    let begin = matches!(ev.kind, EventKind::FlowBegin { .. });
                    let mut flow = event(if begin { "s" } else { "f" }, name, lane, ts);
                    flow.set("cat", flow_cat);
                    flow.set("id", format!("{id:#x}"));
                    if !begin {
                        flow.set("bp", "e");
                    }
                    out.push(flow);
                }
            }
        }
    }
    // Synthetic closes, innermost first, all at the lane's end.
    while let Some(name) = open.pop() {
        out.push(event("E", name, lane, last_ts + 1.0));
    }
}

fn event(ph: &str, name: &str, (pid, tid): (usize, usize), ts: f64) -> Value {
    let mut ev = Value::obj();
    ev.set("name", name);
    ev.set("ph", ph);
    ev.set("pid", pid);
    ev.set("tid", tid);
    ev.set("ts", ts);
    ev
}

/// An instant (`i`, thread-width tick mark) or counter (`C`) event with
/// one numeric argument.
fn arg_event(ph: &str, name: &str, arg: &str, value: f64, lane: (usize, usize), ts: f64) -> Value {
    let mut ev = event(ph, name, lane, ts);
    if ph == "i" {
        ev.set("s", "t");
    }
    let mut args = Value::obj();
    args.set(arg, value);
    ev.set("args", args);
    ev
}

/// A `process_name` / `thread_name` metadata record.
fn meta(kind: &str, pid: usize, tid: usize, name: &str) -> Value {
    let mut args = Value::obj();
    args.set("name", name);
    let mut ev = Value::obj();
    ev.set("name", kind);
    ev.set("ph", "M");
    ev.set("pid", pid);
    ev.set("tid", tid);
    ev.set("args", args);
    ev
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkk_gpusim::GpuArch;

    #[test]
    fn export_is_deterministic_and_balanced() {
        // Drive two identical collectors directly (no global registry,
        // so no interference from concurrent tests) and require
        // byte-identical exports.
        use lkk_gpusim::{KernelStats, ProfileSubscriber};
        let render = || {
            let c = TraceCollector::deterministic(GpuArch::h100());
            c.region_begin("step", 1);
            c.region_begin("step/pair", 2);
            c.kernel_launch("PairCompute", "step/pair", 256);
            let mut stats = KernelStats::new("PairCompute");
            stats.region = "step/pair".into();
            stats.work_items = 256.0;
            stats.flops = 1e6;
            stats.dram_bytes = 1e5;
            c.kernel_stats(&stats);
            c.instant("fwd_bytes", "step/pair", 96.0);
            c.counter("owned_atoms", "step", 64.0);
            c.region_end("step/pair", 2, 0.0);
            // "step" deliberately left open: exporter must synthesize
            // its E.
            c.export_chrome()
        };
        let a = render();
        let b = render();
        assert_eq!(a, b, "deterministic export is not byte-stable");

        // Balanced spans on the host lane.
        let begins = a.matches("\"ph\": \"B\"").count();
        let ends = a.matches("\"ph\": \"E\"").count();
        assert_eq!(begins, 2);
        assert_eq!(ends, 2, "synthetic close missing:\n{a}");
        // Device lane rendered with a predicted duration.
        assert!(a.contains("\"ph\": \"X\""), "{a}");
        assert!(a.contains("\"dur\": "), "{a}");
        assert!(a.contains("gpusim NVIDIA H100 (predicted)"), "{a}");
        // Counter and instant payloads present.
        assert!(a.contains("\"ph\": \"C\""), "{a}");
        assert!(a.contains("\"work_items\": 256"), "{a}");
    }

    #[test]
    fn unmatched_end_is_dropped() {
        use lkk_gpusim::ProfileSubscriber;
        let c = TraceCollector::deterministic(GpuArch::h100());
        c.region_end("phantom", 1, 0.0);
        c.region_begin("real", 1);
        c.region_end("real", 1, 0.0);
        let json = c.export_chrome();
        assert!(!json.contains("phantom"), "{json}");
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 1);
    }

    #[test]
    fn complete_flows_export_and_dangling_flows_are_dropped() {
        use lkk_gpusim::ProfileSubscriber;
        let c = TraceCollector::deterministic(GpuArch::h100());
        // Complete flow 7: begin inside a send span, end on the same
        // (single-threaded test) lane inside a recv span.
        c.region_begin("send", 1);
        c.flow_begin("forward", "send", 7);
        c.region_end("send", 1, 0.0);
        c.region_begin("recv", 1);
        c.flow_end("forward", "recv", 7);
        c.region_end("recv", 1, 0.0);
        // Dangling flow 9: begin with no end (dead-edge drop).
        c.flow_begin("border", "send", 9);
        let json = c.export_chrome();
        assert_eq!(json.matches("\"ph\": \"s\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\": \"f\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"cat\": \"comm\"").count(), 2, "{json}");
        assert_eq!(json.matches("\"id\": \"0x7\"").count(), 2, "{json}");
        assert!(json.contains("\"bp\": \"e\""), "{json}");
        assert!(
            !json.contains("\"id\": \"0x9\""),
            "dangling flow leaked:\n{json}"
        );
    }
}
