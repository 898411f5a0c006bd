//! What the traced run yields: per-layer numbers from the spans, a
//! self-time table that closes to the step total, and a Chrome trace.

use crate::api::{RankLog, Span};
use crate::json;
use crate::stats::median_or_zero;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;

/// The spans of one rank with a `step` span per timestep and a
/// `neighbor.gap` span per rebuild (from the end of `comm.borders` to the
/// start of the next `comm.forward`: the neighbor-list rebuild and what
/// the driver does around it, seen from outside).
pub fn complete_spans(log: &RankLog) -> Vec<Span> {
    let mut spans = log.spans.clone();
    for (step, (&start, &end)) in log.step_begin.iter().zip(&log.step_end).enumerate() {
        spans.push(Span {
            name: "step",
            parent: "",
            start,
            end,
            step: step as i64,
        });
    }
    for borders in log.spans.iter().filter(|s| s.name == "comm.borders") {
        let forward = log
            .spans
            .iter()
            .filter(|s| s.name == "comm.forward" && s.step == borders.step)
            .find(|s| s.start >= borders.end);
        if let Some(forward) = forward {
            spans.push(Span {
                name: "neighbor.gap",
                parent: if borders.step < 0 { "" } else { "step" },
                start: borders.end,
                end: forward.start,
                step: borders.step,
            });
        }
    }
    spans.sort_by(|a, b| a.start.total_cmp(&b.start));
    spans
}

/// Per-layer numbers of one rank over its timed steps (`step >= warmup`).
pub struct RankSummary {
    /// Step time, self time (step minus its child spans) and whether the
    /// step rebuilt the neighbor list, per timed step.
    pub steps: Vec<(f64, f64, bool)>,
    /// Individual durations of every span name inside timed steps.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// Total self seconds per span name inside timed steps.
    pub self_seconds: BTreeMap<&'static str, f64>,
}

/// `Err` names a span whose self time is negative: its children cover
/// more than its own interval, so the layers do not close.
pub fn summarize(spans: &[Span], warmup: usize) -> Result<RankSummary, String> {
    let timed: Vec<&Span> = spans.iter().filter(|s| s.step >= warmup as i64).collect();
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_seconds: BTreeMap<&'static str, f64> = BTreeMap::new();
    // Children seconds per (step, parent name).
    let mut children: BTreeMap<(i64, &'static str), f64> = BTreeMap::new();
    let mut rebuilt: BTreeSet<i64> = BTreeSet::new();
    for span in &timed {
        durations
            .entry(span.name)
            .or_default()
            .push(span.end - span.start);
        *children.entry((span.step, span.parent)).or_default() += span.end - span.start;
        if span.name == "comm.borders" {
            rebuilt.insert(span.step);
        }
    }
    // A parent name occurs once per step (`step`, `pair.compute`), so its
    // children can be keyed by (step, name).
    let mut steps = Vec::new();
    for span in &timed {
        let own = span.end - span.start;
        let covered = children
            .get(&(span.step, span.name))
            .copied()
            .unwrap_or(0.0);
        let self_time = own - covered;
        // Region spans are rebuilt from (end, seconds), so allow a
        // microsecond of clock skew before calling the table broken.
        if self_time < -1e-6 {
            return Err(format!(
                "negative self time {self_time:.3e} s for span {} in step {}",
                span.name, span.step
            ));
        }
        *self_seconds.entry(span.name).or_default() += self_time;
        if span.name == "step" {
            steps.push((own, self_time, rebuilt.contains(&span.step)));
        }
    }
    Ok(RankSummary {
        steps,
        durations,
        self_seconds,
    })
}

impl RankSummary {
    /// Median duration of one span name, seconds (0 when it never ran).
    pub fn p50(&self, name: &str) -> f64 {
        self.durations.get(name).map_or(0.0, |d| median_or_zero(d))
    }

    pub fn count(&self, name: &str) -> usize {
        self.durations.get(name).map_or(0, |d| d.len())
    }

    /// Seconds inside spans whose name starts with `prefix`.
    pub fn total(&self, prefix: &str) -> f64 {
        self.durations
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, d)| d.iter().sum::<f64>())
            .sum()
    }

    pub fn step_seconds(&self) -> f64 {
        self.steps.iter().map(|s| s.0).sum()
    }

    /// The self-time table: one line per layer, closing to the step total.
    pub fn table(&self) -> String {
        let total = self.step_seconds().max(1e-300);
        let mut text = String::new();
        let mut closed = 0.0;
        for (name, seconds) in &self.self_seconds {
            let label = if *name == "step" { "sim.self" } else { name };
            text.push_str(&format!(
                "  self {label:<22} {:>10.3} ms {:>6.2} %\n",
                seconds * 1e3,
                100.0 * seconds / total
            ));
            closed += seconds;
        }
        text.push_str(&format!(
            "  self {:<22} {:>10.3} ms {:>6.2} % of {:.3} ms in {} timed steps\n",
            "(sum)",
            closed * 1e3,
            100.0 * closed / total,
            total * 1e3,
            self.steps.len()
        ));
        text
    }
}

/// Write every rank's spans as one Chrome trace (`chrome://tracing`,
/// Perfetto): complete events, one thread lane per rank, microseconds.
pub fn write_chrome(path: &std::path::Path, rep: &str, lanes: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    for (rank, spans) in lanes.iter().enumerate() {
        for span in spans {
            if !first {
                write!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{rank},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                json::quote(span.name),
                json::quote(span.name.split('.').next().unwrap_or("")),
                json::number(span.start * 1e6),
                json::number((span.end - span.start) * 1e6),
                json::quote(&format!("{rep}/{}", span.step)),
                json::quote(span.parent),
            )?;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}
