//! Critical-path extraction and time attribution over the collected
//! per-lane timelines.
//!
//! The collector records each rank thread as an independent lane of
//! nested spans, and the comm layer stamps every envelope transmission
//! with a flow begin on the sender lane and a flow end on the receiver
//! lane (same 64-bit id — see `lkk_core::comm::fault::flow_id`). That
//! is exactly the information needed to answer the scaling question the
//! paper's strong-scaling figures raise: *which rank, in which phase,
//! is the step actually waiting on?*
//!
//! The analyzer works per step (spans named `step`, matched by index
//! across lanes — the exchanges are bulk-synchronous so step `k` on one
//! rank can only communicate with step `k` on another):
//!
//! 1. Each lane's step interval is tiled into *segments*: at every
//!    span push/pop inside the step the innermost open span changes,
//!    and the segment between two such boundaries belongs to that span.
//!    Segments classify into buckets by their leaf span — `pack`/`send`
//!    → **pack**, `recv`/`reclaim` → **wire-wait** (or **retry** when a
//!    `comm.fault.*` recovery instant fired inside the segment),
//!    `unpack` → **unpack**, everything else → **compute**.
//! 2. Segments form a DAG: consecutive segments on one lane are
//!    chained, and every flow whose begin and end land in the same step
//!    adds a cross-lane edge from the sending segment to the accepting
//!    segment. The exchanges' send-all-then-receive-all schedule makes
//!    this graph acyclic; the longest node-weighted path through it is
//!    the step's critical path.
//! 3. Per lane, the bucket sums are closed exactly: compute is defined
//!    by subtraction from the lane's step span, and the *slack* bucket
//!    absorbs the difference between the lane and the slowest lane —
//!    so `compute + pack + wire_wait + unpack + retry + slack` equals
//!    the step's total time identically (integer tick arithmetic in
//!    deterministic mode), which `tests/trace_schema.rs` pins.
//!
//! The resulting [`CriticalPathReport`] renders as a canonical
//! [`Value`] (fixed key order, sorted rank keys), which `perf-smoke`
//! embeds as the `critical_path` section of its byte-gated document.

use crate::collector::{Event, EventKind, TraceCollector, TraceMode};
use crate::json::Value;
use std::collections::BTreeMap;

/// Attribution bucket of one timeline segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    Compute,
    Pack,
    WireWait,
    Unpack,
    Retry,
}

impl Bucket {
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Compute => "compute",
            Bucket::Pack => "pack",
            Bucket::WireWait => "wire_wait",
            Bucket::Unpack => "unpack",
            Bucket::Retry => "retry",
        }
    }
}

/// One segment on a step's critical path.
#[derive(Debug, Clone)]
pub struct PathSpan {
    /// Lane (rank) name the segment ran on.
    pub lane: String,
    /// Step index (0-based over the lane's `step` spans, warmup
    /// included).
    pub step: usize,
    /// `/`-joined span path below the step (`"step"` for the gaps
    /// between child spans).
    pub name: String,
    pub bucket: Bucket,
    /// Duration in the collector's clock (ticks or µs).
    pub duration: f64,
}

/// Per-rank time attribution summed over all steps. The six buckets
/// sum exactly to [`CriticalPathReport::total_time`] on every rank.
#[derive(Debug, Clone)]
pub struct RankAttribution {
    pub lane: String,
    pub compute: f64,
    pub pack: f64,
    pub wire_wait: f64,
    pub unpack: f64,
    pub retry: f64,
    /// Imbalance slack: time this rank spent finished-but-waiting for
    /// the slowest rank of each step.
    pub slack: f64,
}

impl RankAttribution {
    pub fn total(&self) -> f64 {
        self.compute + self.pack + self.wire_wait + self.unpack + self.retry + self.slack
    }

    /// `(name, value)` pairs in canonical render order.
    pub fn entries(&self) -> [(&'static str, f64); 6] {
        [
            ("compute", self.compute),
            ("pack", self.pack),
            ("wire_wait", self.wire_wait),
            ("unpack", self.unpack),
            ("retry", self.retry),
            ("slack", self.slack),
        ]
    }
}

/// One step's critical path.
#[derive(Debug, Clone)]
pub struct StepSummary {
    pub index: usize,
    /// Slowest lane's step duration — the step's wall contribution.
    pub total: f64,
    /// Weight of the longest path through the step DAG.
    pub critical: f64,
    /// The longest path, in execution order.
    pub path: Vec<PathSpan>,
}

/// The full analysis: per-rank attribution, per-step critical paths,
/// and flow accounting; [`to_value`](Self::to_value) is what the
/// baseline gates.
#[derive(Debug, Clone)]
pub struct CriticalPathReport {
    /// `"ticks"` (deterministic) or `"us"` (wall).
    pub clock: &'static str,
    /// Rank lanes analyzed.
    pub lanes: Vec<String>,
    /// Steps seen (max over lanes; lockstep runs agree).
    pub nsteps: usize,
    /// Σ over steps of the slowest lane's step duration.
    pub total_time: f64,
    /// Σ over steps of the longest-path weight. In deterministic mode
    /// each lane's tick clock counts only its own events, so segments
    /// on different lanes are not aligned on a shared axis and a path
    /// that hops lanes through a flow edge can weigh *more* than the
    /// slowest single lane — `critical_time` may exceed
    /// [`total_time`](Self::total_time). Compare the two as a
    /// cross-lane-coupling indicator, not as a utilization ratio.
    pub critical_time: f64,
    /// Flows with exactly one begin and one end recorded.
    pub flows_complete: u64,
    /// Flow ids with a missing or duplicated endpoint (dead-edge drops).
    pub flows_dangling: u64,
    /// Complete flows per phase tag.
    pub flows_by_tag: BTreeMap<String, u64>,
    pub ranks: Vec<RankAttribution>,
    pub steps: Vec<StepSummary>,
}

impl CriticalPathReport {
    /// The `n` longest critical-path segments across all steps,
    /// deterministically ordered (duration descending, then step, lane,
    /// name ascending).
    pub fn top_spans(&self, n: usize) -> Vec<&PathSpan> {
        let mut all: Vec<&PathSpan> = self.steps.iter().flat_map(|s| s.path.iter()).collect();
        all.sort_by(|a, b| {
            b.duration
                .total_cmp(&a.duration)
                .then(a.step.cmp(&b.step))
                .then(a.lane.cmp(&b.lane))
                .then(a.name.cmp(&b.name))
        });
        all.truncate(n);
        all
    }

    /// Canonical rendering: fixed key order, sorted rank keys —
    /// byte-identical across deterministic runs. Embeds the top-5
    /// critical-path spans; per-step detail stays on the struct.
    pub fn to_value(&self) -> Value {
        let mut by_tag = Value::obj();
        for (tag, n) in &self.flows_by_tag {
            by_tag.set(tag.clone(), *n);
        }
        let mut flows = Value::obj();
        flows.set("complete", self.flows_complete);
        flows.set("dangling", self.flows_dangling);
        flows.set("by_tag", by_tag);

        let mut ranks = Value::obj();
        for r in &self.ranks {
            let mut row = Value::obj();
            for (name, v) in r.entries() {
                row.set(name, v);
            }
            row.set("total", r.total());
            ranks.set(r.lane.clone(), row);
        }

        let top_spans = self.top_spans(5).into_iter().map(|s| {
            let mut span = Value::obj();
            span.set("lane", s.lane.clone());
            span.set("step", s.step);
            span.set("name", s.name.clone());
            span.set("bucket", s.bucket.name());
            span.set("duration", s.duration);
            span
        });

        let mut out = Value::obj();
        out.set("schema", 1.0);
        out.set("clock", self.clock);
        out.set("lanes", self.lanes.len());
        out.set("steps", self.nsteps);
        out.set("total_time", self.total_time);
        out.set("critical_time", self.critical_time);
        out.set("flows", flows);
        out.set("ranks", ranks);
        out.set("top_spans", Value::Arr(top_spans.collect()));
        out
    }
}

// ---------------------------------------------------------------------
// Lane decomposition
// ---------------------------------------------------------------------

/// One tiled segment of a step interval.
struct Seg {
    path: String,
    start: f64,
    end: f64,
    bucket: Bucket,
}

/// One `step` span on one lane, tiled into segments.
struct LaneStep {
    start: f64,
    end: f64,
    segs: Vec<Seg>,
}

struct LaneAnalysis {
    name: String,
    steps: Vec<LaneStep>,
}

/// A flow endpoint resolved to its (lane, step, segment) node.
struct FlowEndpoint {
    lane: usize,
    step: usize,
    seg: usize,
}

fn bucket_of(leaf: &str) -> Bucket {
    match leaf {
        "pack" | "send" => Bucket::Pack,
        "recv" | "reclaim" => Bucket::WireWait,
        "unpack" => Bucket::Unpack,
        _ => Bucket::Compute,
    }
}

/// Walk one lane's event stream, reconstructing the span tree with the
/// same repair rules as the Chrome exporter (unmatched pops dropped,
/// open spans closed at the last timestamp + 1), tiling every `step`
/// span and resolving flow endpoints to segment indices.
fn analyze_lane(
    lane_idx: usize,
    name: &str,
    events: &[Event],
    mode: TraceMode,
    flows_out: &mut BTreeMap<u64, Vec<FlowEndpoint>>,
    flows_in: &mut BTreeMap<u64, Vec<FlowEndpoint>>,
) -> LaneAnalysis {
    let mut stack: Vec<String> = Vec::new();
    // Stack depth at which the open `step` span sits (its own slot).
    let mut step_depth: Option<usize> = None;
    let mut steps: Vec<LaneStep> = Vec::new();
    let mut cur: Option<LaneStep> = None;
    let mut seg_start = 0.0_f64;
    let mut seg_fault = false;
    let mut last_ts = 0.0_f64;

    // Close the segment under construction at `ts` and start the next.
    let close_seg = |stack: &[String],
                     depth: usize,
                     cur: &mut Option<LaneStep>,
                     seg_start: &mut f64,
                     seg_fault: &mut bool,
                     ts: f64| {
        let below = &stack[depth..];
        let path = if below.is_empty() {
            "step".to_string()
        } else {
            below.join("/")
        };
        let leaf = below.last().map_or("step", |s| s.as_str());
        let mut bucket = bucket_of(leaf);
        if *seg_fault && matches!(bucket, Bucket::WireWait | Bucket::Pack) {
            bucket = Bucket::Retry;
        }
        cur.as_mut().unwrap().segs.push(Seg {
            path,
            start: *seg_start,
            end: ts,
            bucket,
        });
        *seg_start = ts;
        *seg_fault = false;
    };

    for ev in events {
        let ts = mode.pick(ev.ts_det, ev.ts_wall);
        last_ts = last_ts.max(ts);
        match &ev.kind {
            EventKind::Begin(name) => {
                if let Some(depth) = step_depth {
                    close_seg(&stack, depth, &mut cur, &mut seg_start, &mut seg_fault, ts);
                }
                stack.push(name.clone());
                if step_depth.is_none() && name == "step" {
                    step_depth = Some(stack.len());
                    cur = Some(LaneStep {
                        start: ts,
                        end: ts,
                        segs: Vec::new(),
                    });
                    seg_start = ts;
                    seg_fault = false;
                }
            }
            EventKind::End(_) => {
                if stack.is_empty() {
                    continue; // repair: unmatched pop
                }
                if let Some(depth) = step_depth {
                    close_seg(&stack, depth, &mut cur, &mut seg_start, &mut seg_fault, ts);
                    if stack.len() == depth {
                        // The step span itself is closing.
                        let mut s = cur.take().unwrap();
                        s.end = ts;
                        steps.push(s);
                        step_depth = None;
                    }
                }
                stack.pop();
            }
            EventKind::Instant { name, .. } => {
                if step_depth.is_some() && name.starts_with("comm.fault.") {
                    seg_fault = true;
                }
            }
            EventKind::FlowBegin { id, .. } => {
                if let Some(cur) = &cur {
                    flows_out.entry(*id).or_default().push(FlowEndpoint {
                        lane: lane_idx,
                        step: steps.len(),
                        seg: cur.segs.len(),
                    });
                }
            }
            EventKind::FlowEnd { id, .. } => {
                if let Some(cur) = &cur {
                    flows_in.entry(*id).or_default().push(FlowEndpoint {
                        lane: lane_idx,
                        step: steps.len(),
                        seg: cur.segs.len(),
                    });
                }
            }
            EventKind::Counter { .. } | EventKind::Launch { .. } => {}
        }
    }
    // Repair: a step still open at the end closes at last_ts + 1 (the
    // same synthetic close the Chrome exporter emits).
    if let Some(depth) = step_depth {
        let ts = last_ts + 1.0;
        close_seg(&stack, depth, &mut cur, &mut seg_start, &mut seg_fault, ts);
        let mut s = cur.take().unwrap();
        s.end = ts;
        steps.push(s);
    }
    LaneAnalysis {
        name: name.to_string(),
        steps,
    }
}

// ---------------------------------------------------------------------
// Longest path
// ---------------------------------------------------------------------

/// Longest node-weighted path through one step's segment DAG. Nodes are
/// `(lane, seg)`; predecessors are the previous segment on the same
/// lane plus any same-step flow senders. Memoized iterative DFS; a
/// defensive in-progress check breaks cycles (impossible under the
/// send-all-then-receive-all schedule, but an analyzer must not hang on
/// a malformed trace).
fn longest_path(
    lanes: &[&LaneStep],
    flow_preds: &BTreeMap<(usize, usize), Vec<(usize, usize)>>,
) -> (f64, Vec<(usize, usize)>) {
    let weight = |(l, s): (usize, usize)| -> f64 {
        let seg = &lanes[l].segs[s];
        seg.end - seg.start
    };
    let preds = |(l, s): (usize, usize)| -> Vec<(usize, usize)> {
        let mut p = Vec::new();
        if s > 0 {
            p.push((l, s - 1));
        }
        if let Some(fp) = flow_preds.get(&(l, s)) {
            p.extend(fp.iter().copied());
        }
        p
    };

    let mut dp: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut best_pred: BTreeMap<(usize, usize), Option<(usize, usize)>> = BTreeMap::new();
    // 1 = in progress, 2 = done (absent = unvisited).
    let mut state: BTreeMap<(usize, usize), u8> = BTreeMap::new();

    let nodes: Vec<(usize, usize)> = lanes
        .iter()
        .enumerate()
        .flat_map(|(l, ls)| (0..ls.segs.len()).map(move |s| (l, s)))
        .collect();

    for &start in &nodes {
        if state.get(&start) == Some(&2) {
            continue;
        }
        let mut stack = vec![start];
        while let Some(&n) = stack.last() {
            match state.get(&n).copied() {
                Some(2) => {
                    stack.pop();
                }
                Some(1) => {
                    let mut best = 0.0_f64;
                    let mut bp = None;
                    for p in preds(n) {
                        if state.get(&p) == Some(&2) && dp[&p] > best {
                            best = dp[&p];
                            bp = Some(p);
                        }
                    }
                    dp.insert(n, best + weight(n));
                    best_pred.insert(n, bp);
                    state.insert(n, 2);
                    stack.pop();
                }
                _ => {
                    state.insert(n, 1);
                    for p in preds(n) {
                        if !state.contains_key(&p) {
                            stack.push(p);
                        }
                    }
                }
            }
        }
    }

    let mut best_end: Option<(usize, usize)> = None;
    for &n in &nodes {
        if best_end.is_none() || dp[&n] > dp[&best_end.unwrap()] {
            best_end = Some(n);
        }
    }
    let Some(mut node) = best_end else {
        return (0.0, Vec::new());
    };
    let total = dp[&node];
    let mut path = vec![node];
    while let Some(Some(p)) = best_pred.get(&node) {
        node = *p;
        path.push(node);
    }
    path.reverse();
    (total, path)
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

impl TraceCollector {
    /// Analyze the collected rank lanes: per-step critical paths,
    /// per-rank bucket attribution, and flow accounting. Lanes that are
    /// not rank lanes (`host`, device) do not participate.
    pub fn critical_path(&self) -> CriticalPathReport {
        let mode = self.mode();
        let lanes = self.sorted_lanes();

        // Global flow balance scan (all lanes, steps or not).
        let mut flow_counts: BTreeMap<u64, (u64, u64, String)> = BTreeMap::new();
        for lane in &lanes {
            let d = lane.data.lock().unwrap();
            for ev in &d.events {
                match &ev.kind {
                    EventKind::FlowBegin { id, name } => {
                        let e = flow_counts
                            .entry(*id)
                            .or_insert_with(|| (0, 0, name.clone()));
                        e.0 += 1;
                    }
                    EventKind::FlowEnd { id, name } => {
                        let e = flow_counts
                            .entry(*id)
                            .or_insert_with(|| (0, 0, name.clone()));
                        e.1 += 1;
                    }
                    _ => {}
                }
            }
        }
        let mut flows_complete = 0u64;
        let mut flows_dangling = 0u64;
        let mut flows_by_tag: BTreeMap<String, u64> = BTreeMap::new();
        for (s, f, tag) in flow_counts.values() {
            if (*s, *f) == (1, 1) {
                flows_complete += 1;
                *flows_by_tag.entry(tag.clone()).or_insert(0) += 1;
            } else {
                flows_dangling += 1;
            }
        }

        // Per-lane decomposition (rank lanes only, already name-sorted).
        let mut flows_out: BTreeMap<u64, Vec<FlowEndpoint>> = BTreeMap::new();
        let mut flows_in: BTreeMap<u64, Vec<FlowEndpoint>> = BTreeMap::new();
        let mut analyses: Vec<LaneAnalysis> = Vec::new();
        for lane in &lanes {
            let d = lane.data.lock().unwrap();
            if !crate::collector::is_rank_root(&d.name) {
                continue;
            }
            let idx = analyses.len();
            analyses.push(analyze_lane(
                idx,
                &d.name,
                &d.events,
                mode,
                &mut flows_out,
                &mut flows_in,
            ));
        }

        let nsteps = analyses.iter().map(|a| a.steps.len()).max().unwrap_or(0);

        // Same-step flow edges, keyed by step: sender node → receiver
        // node. Only singly-bound flows become edges (a retransmitted
        // envelope still has one begin and one end; a torn one doesn't).
        // Nodes are `(lane index, segment index)` pairs.
        type Node = (usize, usize);
        let mut edges_by_step: BTreeMap<usize, BTreeMap<Node, Vec<Node>>> = BTreeMap::new();
        for (id, outs) in &flows_out {
            let Some(ins) = flows_in.get(id) else {
                continue;
            };
            if outs.len() != 1 || ins.len() != 1 {
                continue;
            }
            let (src, dst) = (&outs[0], &ins[0]);
            if src.step != dst.step || src.lane == dst.lane {
                continue;
            }
            edges_by_step
                .entry(src.step)
                .or_default()
                .entry((dst.lane, dst.seg))
                .or_default()
                .push((src.lane, src.seg));
        }

        // Per-step totals, buckets, and critical paths.
        let nlanes = analyses.len();
        let mut rank_buckets = vec![[0.0_f64; 6]; nlanes]; // c, p, w, u, r, slack
        let mut total_time = 0.0_f64;
        let mut critical_time = 0.0_f64;
        let mut step_summaries: Vec<StepSummary> = Vec::new();
        let empty_edges = BTreeMap::new();
        for k in 0..nsteps {
            let lane_steps: Vec<Option<&LaneStep>> =
                analyses.iter().map(|a| a.steps.get(k)).collect();
            let step_total = lane_steps
                .iter()
                .flatten()
                .map(|s| s.end - s.start)
                .fold(0.0_f64, f64::max);
            total_time += step_total;

            for (l, ls) in lane_steps.iter().enumerate() {
                let Some(ls) = ls else {
                    // A lane with no step k spends the whole step in
                    // slack (only malformed traces get here).
                    rank_buckets[l][5] += step_total;
                    continue;
                };
                let lane_total = ls.end - ls.start;
                let mut sums = [0.0_f64; 4]; // pack, wire, unpack, retry
                for seg in &ls.segs {
                    let d = seg.end - seg.start;
                    match seg.bucket {
                        Bucket::Pack => sums[0] += d,
                        Bucket::WireWait => sums[1] += d,
                        Bucket::Unpack => sums[2] += d,
                        Bucket::Retry => sums[3] += d,
                        Bucket::Compute => {}
                    }
                }
                // Compute and slack by subtraction: the six buckets sum
                // to step_total *exactly*, by construction.
                let comm: f64 = sums.iter().sum();
                rank_buckets[l][0] += lane_total - comm;
                rank_buckets[l][1] += sums[0];
                rank_buckets[l][2] += sums[1];
                rank_buckets[l][3] += sums[2];
                rank_buckets[l][4] += sums[3];
                rank_buckets[l][5] += step_total - lane_total;
            }

            let present: Vec<&LaneStep> = lane_steps.iter().flatten().copied().collect();
            if present.is_empty() {
                continue;
            }
            // lane_steps indices == analysis indices only when every
            // lane has step k; remap the edge endpoints accordingly.
            let remap: Vec<usize> = lane_steps
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(l, _)| l)
                .collect();
            let inv: BTreeMap<usize, usize> =
                remap.iter().enumerate().map(|(i, &l)| (l, i)).collect();
            let step_edges = edges_by_step.get(&k).unwrap_or(&empty_edges);
            let mut flow_preds: BTreeMap<(usize, usize), Vec<(usize, usize)>> = BTreeMap::new();
            for (&(dl, ds), srcs) in step_edges {
                let Some(&dl2) = inv.get(&dl) else { continue };
                for &(sl, ss) in srcs {
                    let Some(&sl2) = inv.get(&sl) else { continue };
                    flow_preds.entry((dl2, ds)).or_default().push((sl2, ss));
                }
            }
            let (critical, path_nodes) = longest_path(&present, &flow_preds);
            critical_time += critical;
            let path: Vec<PathSpan> = path_nodes
                .iter()
                .map(|&(l, s)| {
                    let seg = &present[l].segs[s];
                    PathSpan {
                        lane: analyses[remap[l]].name.clone(),
                        step: k,
                        name: seg.path.clone(),
                        bucket: seg.bucket,
                        duration: seg.end - seg.start,
                    }
                })
                .collect();
            step_summaries.push(StepSummary {
                index: k,
                total: step_total,
                critical,
                path,
            });
        }

        CriticalPathReport {
            clock: mode.clock(),
            lanes: analyses.iter().map(|a| a.name.clone()).collect(),
            nsteps,
            total_time,
            critical_time,
            flows_complete,
            flows_dangling,
            flows_by_tag,
            ranks: analyses
                .iter()
                .enumerate()
                .map(|(l, a)| RankAttribution {
                    lane: a.name.clone(),
                    compute: rank_buckets[l][0],
                    pack: rank_buckets[l][1],
                    wire_wait: rank_buckets[l][2],
                    unpack: rank_buckets[l][3],
                    retry: rank_buckets[l][4],
                    slack: rank_buckets[l][5],
                })
                .collect(),
            steps: step_summaries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkk_gpusim::{GpuArch, ProfileSubscriber};

    /// Drive a collector's subscriber hooks directly from two scoped
    /// threads so each gets its own rank lane (events land on the
    /// calling thread's lane).
    fn two_lane_fixture() -> TraceCollector {
        let c = TraceCollector::deterministic(GpuArch::h100());
        std::thread::scope(|s| {
            s.spawn(|| {
                c.region_begin("rank0", 1);
                c.region_begin("rank0/step", 2);
                c.region_begin("rank0/step/pair", 3);
                c.region_end("rank0/step/pair", 3, 0.0);
                c.region_begin("rank0/step/comm", 3);
                c.region_begin("rank0/step/comm/pack", 4);
                c.flow_begin("forward", "rank0/step/comm/pack", 101);
                c.region_end("rank0/step/comm/pack", 4, 0.0);
                c.region_begin("rank0/step/comm/recv", 4);
                c.flow_end("forward", "rank0/step/comm/recv", 102);
                // A long blocking receive: rank0 waits on rank1's send.
                for _ in 0..4 {
                    c.instant("halo_bytes", "rank0/step/comm/recv", 8.0);
                }
                c.region_end("rank0/step/comm/recv", 4, 0.0);
                c.region_end("rank0/step/comm", 3, 0.0);
                c.region_end("rank0/step", 2, 0.0);
                c.region_end("rank0", 1, 0.0);
            });
            s.spawn(|| {
                c.region_begin("rank1", 1);
                c.region_begin("rank1/step", 2);
                // Longer pair phase: rank1 is the step's slow lane.
                c.region_begin("rank1/step/pair", 3);
                c.instant("pair.items", "rank1/step/pair", 1.0);
                c.instant("pair.items", "rank1/step/pair", 1.0);
                c.instant("pair.items", "rank1/step/pair", 1.0);
                c.region_end("rank1/step/pair", 3, 0.0);
                c.region_begin("rank1/step/comm", 3);
                c.region_begin("rank1/step/comm/pack", 4);
                c.flow_begin("forward", "rank1/step/comm/pack", 102);
                c.region_end("rank1/step/comm/pack", 4, 0.0);
                c.region_begin("rank1/step/comm/recv", 4);
                c.flow_end("forward", "rank1/step/comm/recv", 101);
                c.region_end("rank1/step/comm/recv", 4, 0.0);
                c.region_end("rank1/step/comm", 3, 0.0);
                c.region_end("rank1/step", 2, 0.0);
                c.region_end("rank1", 1, 0.0);
            });
        });
        c
    }

    #[test]
    fn buckets_tile_the_step_exactly() {
        let c = two_lane_fixture();
        let report = c.critical_path();
        assert_eq!(report.lanes, vec!["rank0", "rank1"]);
        assert_eq!(report.nsteps, 1);
        assert!(report.total_time > 0.0);
        for r in &report.ranks {
            assert_eq!(
                r.total(),
                report.total_time,
                "bucket sums must equal total step time on {}",
                r.lane
            );
            assert!(r.pack > 0.0, "{}: pack phase missing", r.lane);
            assert!(r.wire_wait > 0.0, "{}: recv phase missing", r.lane);
            assert_eq!(r.retry, 0.0, "{}: fault-free run has no retry", r.lane);
        }
        // rank0's long recv makes it the slowest lane; rank1 idles.
        let r0 = &report.ranks[0];
        let r1 = &report.ranks[1];
        assert_eq!(r0.slack, 0.0, "slow lane has no slack");
        assert!(r1.slack > 0.0, "fast lane must show slack");
        assert!(r1.compute > r0.compute, "rank1's pair phase is longer");
        assert!(r0.wire_wait > r1.wire_wait, "rank0 blocks in recv");
    }

    #[test]
    fn flows_bind_and_critical_path_crosses_lanes() {
        let c = two_lane_fixture();
        let report = c.critical_path();
        assert_eq!(report.flows_complete, 2);
        assert_eq!(report.flows_dangling, 0);
        assert_eq!(report.flows_by_tag.get("forward"), Some(&2));
        assert_eq!(report.steps.len(), 1);
        let step = &report.steps[0];
        assert!(
            step.critical >= step.total - 1e-9,
            "critical path ({}) can never undershoot the slowest lane ({})",
            step.critical,
            step.total
        );
        assert!(!step.path.is_empty());
        // The critical path must traverse both lanes: rank1's long pair
        // phase feeds rank0's recv via the flow edge (or vice versa).
        let lanes_on_path: std::collections::BTreeSet<&str> =
            step.path.iter().map(|s| s.lane.as_str()).collect();
        assert_eq!(
            lanes_on_path.len(),
            2,
            "path stayed on one lane: {:?}",
            step.path
                .iter()
                .map(|s| (&s.lane, &s.name))
                .collect::<Vec<_>>()
        );
        // Path is connected and execution-ordered on each lane.
        assert!(report.critical_time >= report.steps[0].total - 1e-9);
        // top_spans is deterministic and bounded.
        assert!(report.top_spans(3).len() <= 3);
        assert!(report.top_spans(100).len() >= step.path.len());
    }

    #[test]
    fn canonical_value_is_stable_and_well_formed() {
        let a = two_lane_fixture().critical_path().to_value();
        let b = two_lane_fixture().critical_path().to_value();
        assert_eq!(
            a.to_pretty(),
            b.to_pretty(),
            "deterministic report is not byte-stable"
        );
        assert_eq!(a.get("schema"), Some(&Value::Num(1.0)));
        assert_eq!(a.get("clock").and_then(Value::as_str), Some("ticks"));
        assert_eq!(a.get("lanes"), Some(&Value::Num(2.0)));
        let flows = a.get("flows").unwrap();
        assert_eq!(flows.get("complete"), Some(&Value::Num(2.0)));
        assert_eq!(flows.get("dangling"), Some(&Value::Num(0.0)));
        assert_eq!(
            flows.get("by_tag").and_then(|t| t.get("forward")),
            Some(&Value::Num(2.0))
        );
        let rank0 = a.get("ranks").and_then(|r| r.get("rank0")).unwrap();
        for key in ["compute", "wire_wait", "total"] {
            assert!(rank0.get(key).is_some(), "missing {key}");
        }
        assert!(matches!(a.get("top_spans"), Some(Value::Arr(spans)) if !spans.is_empty()));
    }

    #[test]
    fn fault_instants_reclassify_wait_as_retry() {
        let c = TraceCollector::deterministic(GpuArch::h100());
        c.region_begin("rank0", 1);
        c.region_begin("rank0/step", 2);
        c.region_begin("rank0/step/recv", 3);
        c.instant("comm.fault.nack", "rank0/step/recv", 1.0);
        c.region_end("rank0/step/recv", 3, 0.0);
        c.region_begin("rank0/step/recv", 3);
        c.region_end("rank0/step/recv", 3, 0.0);
        c.region_end("rank0/step", 2, 0.0);
        c.region_end("rank0", 1, 0.0);
        let report = c.critical_path();
        let r = &report.ranks[0];
        assert!(r.retry > 0.0, "NACKed recv segment must count as retry");
        assert!(r.wire_wait > 0.0, "clean recv segment stays wire_wait");
        assert_eq!(r.total(), report.total_time);
    }

    #[test]
    fn unclosed_steps_are_repaired() {
        // A lane whose step never closes (abort mid-step) still
        // analyzes: the step is closed at last_ts + 1 like the Chrome
        // exporter does.
        let c = TraceCollector::deterministic(GpuArch::h100());
        c.region_begin("rank0", 1);
        c.region_begin("rank0/step", 2);
        c.region_begin("rank0/step/pair", 3);
        // nothing ever closes
        let report = c.critical_path();
        assert_eq!(report.nsteps, 1);
        assert_eq!(report.ranks[0].total(), report.total_time);
        assert!(report.total_time > 0.0);
    }
}
