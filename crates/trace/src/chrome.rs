//! Chrome `trace_event` JSON export.
//!
//! The output is the "JSON Object Format" of the trace_event spec: a
//! top-level object with a `traceEvents` array, loadable in Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`. Layout:
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

use crate::collector::{DeviceEvent, Event, EventKind, TraceCollector, TraceMode};
use crate::{push_json_num, push_json_string};
use std::collections::{BTreeMap, BTreeSet};

impl TraceCollector {
    /// Render the collected timeline as Chrome `trace_event` JSON.
    pub fn export_chrome(&self) -> String {
        let mode = self.mode();
        let lanes = self.sorted_lanes();

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

        let mut out = String::with_capacity(1 << 16);
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": {");
        out.push_str("\"generator\": \"lkk-trace\", \"arch\": ");
        push_json_string(&mut out, self.arch_name());
        out.push_str(", \"clock\": ");
        push_json_string(
            &mut out,
            match mode {
                TraceMode::Deterministic => "ticks",
                TraceMode::Wall => "us",
            },
        );
        out.push_str("},\n  \"traceEvents\": [\n");

        let mut first = true;
        let mut emit = |line: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str("    ");
            out.push_str(&line);
        };

        emit(process_meta(0, "host"), &mut out);
        if lanes
            .iter()
            .any(|l| !l.data.lock().unwrap().device.is_empty())
        {
            emit(
                process_meta(1, &format!("gpusim {} (predicted)", self.arch_name())),
                &mut out,
            );
        }

        for (tid, lane) in lanes.iter().enumerate() {
            let d = lane.data.lock().unwrap();
            emit(thread_meta(0, tid, &d.name), &mut out);
            for line in host_events(&d.events, mode, tid, &complete_flows) {
                emit(line, &mut out);
            }
            if !d.device.is_empty() {
                emit(thread_meta(1, tid, &format!("{} device", d.name)), &mut out);
                for ev in &d.device {
                    emit(device_event(ev, mode, tid), &mut out);
                }
            }
        }

        out.push_str("\n  ]\n}\n");
        out
    }
}

fn ts_of(ev: &Event, mode: TraceMode) -> f64 {
    match mode {
        TraceMode::Deterministic => ev.ts_det,
        TraceMode::Wall => ev.ts_wall,
    }
}

/// Render one lane's host events, repairing span balance: an `E` with
/// no open span is dropped; spans still open at the end are closed at
/// one past the lane's final timestamp. Flow events are emitted only
/// for ids in `complete_flows` (exactly one begin + one end recorded).
fn host_events(
    events: &[Event],
    mode: TraceMode,
    tid: usize,
    complete_flows: &BTreeSet<u64>,
) -> Vec<String> {
    let mut lines = Vec::with_capacity(events.len());
    let mut open: Vec<&str> = Vec::new();
    let mut last_ts = 0.0_f64;
    for ev in events {
        let ts = ts_of(ev, mode);
        last_ts = last_ts.max(ts);
        match &ev.kind {
            EventKind::Begin(name) => {
                open.push(name);
                lines.push(span_event("B", name, ts, tid));
            }
            EventKind::End(name) => {
                if open.pop().is_some() {
                    lines.push(span_event("E", name, ts, tid));
                }
            }
            EventKind::Instant { name, value } => {
                lines.push(arg_event("i", name, "value", *value, ts, tid, true));
            }
            EventKind::Counter { name, value } => {
                lines.push(arg_event("C", name, "value", *value, ts, tid, false));
            }
            EventKind::Launch { name, work_items } => {
                lines.push(arg_event(
                    "i",
                    name,
                    "work_items",
                    *work_items,
                    ts,
                    tid,
                    true,
                ));
            }
            EventKind::FlowBegin { name, id } => {
                if complete_flows.contains(id) {
                    lines.push(flow_event("s", name, *id, ts, tid));
                }
            }
            EventKind::FlowEnd { name, id } => {
                if complete_flows.contains(id) {
                    lines.push(flow_event("f", name, *id, ts, tid));
                }
            }
        }
    }
    // Synthetic closes, innermost first, all at the lane's end.
    while let Some(name) = open.pop() {
        lines.push(span_event("E", name, last_ts + 1.0, tid));
    }
    lines
}

fn event_head(out: &mut String, ph: &str, name: &str, pid: usize, tid: usize, ts: f64) {
    out.push_str("{\"name\": ");
    push_json_string(out, name);
    out.push_str(&format!(
        ", \"ph\": \"{ph}\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": "
    ));
    push_json_num(out, ts);
}

fn span_event(ph: &str, name: &str, ts: f64, tid: usize) -> String {
    let mut s = String::new();
    event_head(&mut s, ph, name, 0, tid, ts);
    s.push('}');
    s
}

fn arg_event(
    ph: &str,
    name: &str,
    arg: &str,
    value: f64,
    ts: f64,
    tid: usize,
    thread_scope: bool,
) -> String {
    let mut s = String::new();
    event_head(&mut s, ph, name, 0, tid, ts);
    if thread_scope {
        // Instant scope: "t" = thread-width tick mark.
        s.push_str(", \"s\": \"t\"");
    }
    s.push_str(", \"args\": {");
    push_json_string(&mut s, arg);
    s.push_str(": ");
    push_json_num(&mut s, value);
    s.push_str("}}");
    s
}

/// One Perfetto flow endpoint. The `f` side carries `"bp": "e"` so the
/// arrow terminates at the *enclosing slice* end rather than the next
/// slice (the trace_event "binding point" rule). The id is written as
/// a hex string: it uses all 64 bits, and a JSON number is only exact
/// up to 2⁵³ in most readers.
fn flow_event(ph: &str, name: &str, id: u64, ts: f64, tid: usize) -> String {
    let mut s = String::new();
    event_head(&mut s, ph, name, 0, tid, ts);
    s.push_str(&format!(", \"cat\": \"comm\", \"id\": \"{id:#x}\""));
    if ph == "f" {
        s.push_str(", \"bp\": \"e\"");
    }
    s.push('}');
    s
}

fn device_event(ev: &DeviceEvent, mode: TraceMode, tid: usize) -> String {
    let ts = match mode {
        TraceMode::Deterministic => ev.ts_det,
        TraceMode::Wall => ev.ts_wall,
    };
    let mut s = String::new();
    event_head(&mut s, "X", &ev.name, 1, tid, ts);
    s.push_str(", \"dur\": ");
    push_json_num(&mut s, ev.dur_us);
    s.push('}');
    s
}

fn process_meta(pid: usize, name: &str) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \"args\": {{\"name\": "
    ));
    push_json_string(&mut s, name);
    s.push_str("}}");
    s
}

fn thread_meta(pid: usize, tid: usize, name: &str) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \"args\": {{\"name\": "
    ));
    push_json_string(&mut s, name);
    s.push_str("}}");
    s
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
        assert!(
            json.contains("\"cat\": \"comm\", \"id\": \"0x7\""),
            "{json}"
        );
        assert!(json.contains("\"bp\": \"e\""), "{json}");
        assert!(
            !json.contains("\"id\": \"0x9\""),
            "dangling flow leaked:\n{json}"
        );
    }
}
