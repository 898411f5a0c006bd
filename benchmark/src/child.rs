//! One rep: a child process runs one `RunSpec::run`, checks its own
//! result, leaves its final state in a file, and reports to its parent
//! as `key value...` lines on standard output.

use crate::api::{self, RunResult};
use crate::state;
use crate::stats::median_or_zero;
use crate::trace;
use crate::workloads::{Instrument, RunConfig, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// What the parent reads back.
#[derive(Debug, Default)]
pub struct Report {
    pub error: Option<String>,
    values: BTreeMap<String, Vec<f64>>,
    pub text: BTreeMap<String, String>,
    /// Per-layer metrics of a traced rep, by their `BENCHMARK.json` name.
    pub layers: BTreeMap<String, f64>,
    /// Lines the child wants shown to the user.
    pub echo: Vec<String>,
}

impl Report {
    pub fn parse(stdout: &str) -> Report {
        let mut report = Report::default();
        let mut complete = false;
        for line in stdout.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "#" => report.echo.push(rest.to_string()),
                "error" => report.error = Some(rest.to_string()),
                "text" => {
                    if let Some((name, value)) = rest.split_once(' ') {
                        report.text.insert(name.to_string(), value.to_string());
                    }
                }
                "layer" => {
                    if let Some((name, value)) = rest.split_once(' ') {
                        report
                            .layers
                            .insert(name.to_string(), value.parse().unwrap_or(f64::NAN));
                    }
                }
                "done" => complete = true,
                _ => {
                    let numbers = rest
                        .split_whitespace()
                        .map(|v| v.parse().unwrap_or(f64::NAN))
                        .collect();
                    report.values.insert(key.to_string(), numbers);
                }
            }
        }
        if !complete && report.error.is_none() {
            report.error = Some("the child's report is incomplete".to_string());
        }
        report
    }

    /// The first number under `key`, `NaN` when absent.
    pub fn num(&self, key: &str) -> f64 {
        self.values
            .get(key)
            .and_then(|v| v.first().copied())
            .unwrap_or(f64::NAN)
    }

    pub fn nums(&self, key: &str) -> Vec<f64> {
        self.values.get(key).cloned().unwrap_or_default()
    }
}

fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(f64::NAN)
}

struct ChildArgs {
    workload: &'static Workload,
    kind: String,
    warmup: u64,
    steps: u64,
    seed: u64,
    dump: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Option<ChildArgs> {
    let mut workload = None;
    let mut parsed = ChildArgs {
        workload: &crate::workloads::WORKLOADS[0],
        kind: String::new(),
        warmup: 0,
        steps: 0,
        seed: 0,
        dump: PathBuf::new(),
        trace_out: None,
    };
    for pair in args.chunks(2) {
        let [key, value] = pair else { return None };
        match key.as_str() {
            "--workload" => workload = Workload::find(value),
            "--kind" => parsed.kind = value.clone(),
            "--warmup" => parsed.warmup = value.parse().ok()?,
            "--steps" => parsed.steps = value.parse().ok()?,
            "--seed" => parsed.seed = value.parse().ok()?,
            "--dump" => parsed.dump = PathBuf::from(value),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value)),
            _ => return None,
        }
    }
    parsed.workload = workload?;
    Some(parsed)
}

pub fn main(args: &[String]) -> ExitCode {
    let Some(args) = parse_args(args) else {
        eprintln!("lkk-benchmark: malformed --child arguments");
        return ExitCode::from(2);
    };
    let w = args.workload;
    let base = match args.kind.as_str() {
        "base" => w.baseline(args.steps, args.seed),
        "traced" => w.config(args.steps, args.seed, Instrument::Traced),
        "collector" => w.config(args.steps, args.seed, Instrument::Collector),
        _ => w.config(args.steps, args.seed, Instrument::Clock),
    };
    let cfg = RunConfig {
        warmup: args.warmup,
        ..base
    };
    let result = match api::run(&cfg) {
        Ok(result) => result,
        Err(error) => {
            println!("error {}", error.replace('\n', " "));
            return ExitCode::SUCCESS;
        }
    };
    // Before anything else of this process can raise the high-water mark.
    println!("vm_hwm_kb {}", peak_rss_kb());
    if let Err(e) = report(&cfg, w, &result, &args) {
        println!("error {e}");
    }
    ExitCode::SUCCESS
}

fn report(
    cfg: &RunConfig,
    w: &Workload,
    result: &RunResult,
    args: &ChildArgs,
) -> Result<(), String> {
    let warmup = cfg.warmup as usize;
    let rank0 = result.ranks.first().ok_or("no rank reported")?;
    let expected = (cfg.warmup + cfg.steps) as usize;
    if result
        .ranks
        .iter()
        .any(|r| r.step_begin.len() != expected || r.step_end.len() != expected)
    {
        return Err(format!("a rank did not stamp all {expected} steps"));
    }
    let setup_s = result
        .ranks
        .iter()
        .map(|r| r.step_begin[0])
        .fold(0.0, f64::max);
    let last_end = result
        .ranks
        .iter()
        .map(|r| r.step_end[expected - 1])
        .fold(0.0, f64::max);
    println!("natoms {}", result.natoms);
    println!("nranks {}", result.nranks);
    println!("steps_run {expected}");
    println!("setup_s {setup_s}");
    println!("gather_ms {}", (result.run_seconds - last_end) * 1e3);
    // A step's period runs to the start of the next one, so the periods
    // add up to the timed window; the last one ends with its own stamp.
    let step_ms: Vec<String> = (warmup..expected)
        .map(|s| {
            let next = rank0.step_begin.get(s + 1).unwrap_or(&rank0.step_end[s]);
            ((next - rank0.step_begin[s]) * 1e3).to_string()
        })
        .collect();
    println!("step_ms {}", step_ms.join(" "));
    let [lx, ly, lz] = result.box_lengths;
    println!("box {lx} {ly} {lz}");

    println!("e_pair {}", result.e_pair);
    println!("e_kinetic {}", result.e_kinetic);
    println!("text e_pair_bits {:016x}", result.e_pair.to_bits());
    println!("text e_kinetic_bits {:016x}", result.e_kinetic.to_bits());
    let natoms = result.natoms.max(1) as f64;
    let drift = (result.e_pair + result.e_kinetic - result.e_total_setup).abs() / natoms;
    println!("check.energy_drift {drift}");
    println!(
        "check.momentum {}",
        state::momentum_per_atom(&result.states, w.problem.masses())
    );
    println!("check.finite {}", state::all_finite(&result.states) as u8);
    println!(
        "check.tags {}",
        state::same_tags(&result.states, &result.initial_tags) as u8
    );

    println!("rebuilds {}", result.rebuilds);
    println!("total_pairs {}", result.total_pairs);
    println!("neighbor_share {}", result.neighbor_share);
    println!("halo_bytes {}", result.halo_bytes);
    println!("msgs {}", result.msgs);
    println!("migrate_bytes {}", result.migrate_bytes);
    println!("pool_grow {}", result.pool_grow_after_warmup);
    println!("pair_imbalance {}", result.pair_time_imbalance);
    println!("atom_imbalance {}", result.atom_imbalance);

    if cfg.instrument == Instrument::Traced {
        report_layers(cfg, w, result, args)?;
    }
    state::write(&args.dump, &result.states)
        .map_err(|e| format!("cannot write {}: {e}", args.dump.display()))?;
    println!("done");
    Ok(())
}

/// The per-layer numbers of a traced rep, its self-time table, and its
/// Chrome trace.
fn report_layers(
    cfg: &RunConfig,
    w: &Workload,
    result: &RunResult,
    args: &ChildArgs,
) -> Result<(), String> {
    let warmup = cfg.warmup as usize;
    let lanes: Vec<Vec<api::Span>> = result.ranks.iter().map(trace::complete_spans).collect();
    let summaries = lanes
        .iter()
        .map(|spans| trace::summarize(spans, warmup))
        .collect::<Result<Vec<_>, _>>()?;
    let rank0 = &summaries[0];
    let steps = cfg.steps.max(1) as f64;
    let sum =
        |f: fn(&api::Counts) -> f64| -> f64 { result.ranks.iter().map(|r| f(&r.counts)).sum() };

    let layer = |name: &str, value: f64| println!("layer {name} {value}");
    layer("exec.launches_per_step", sum(|c| c.launches as f64) / steps);
    layer(
        "view.transfer_bytes_per_step",
        sum(|c| c.transfer_bytes as f64) / steps,
    );
    let rebuild_steps = rank0.count("comm.borders");
    layer(
        "neighbor.fill_launches_per_rebuild",
        if rebuild_steps > 0 {
            result.ranks[0].counts.neighbor_launches as f64 / rebuild_steps as f64
        } else {
            0.0
        },
    );
    layer("neighbor.rebuild_gap_ms", rank0.p50("neighbor.gap") * 1e3);
    layer("comm.borders_ms_p50", rank0.p50("comm.borders") * 1e3);
    layer("comm.forward_us_p50", rank0.p50("comm.forward") * 1e6);
    layer("comm.reverse_us_p50", rank0.p50("comm.reverse") * 1e6);
    layer("comm.allreduce_us_p50", rank0.p50("comm.allreduce") * 1e6);
    // Per rank, so that waiting for the peer is in it; then the mean.
    let share: f64 = summaries
        .iter()
        .map(|s| s.total("comm.") / s.step_seconds().max(1e-300))
        .sum::<f64>()
        / summaries.len() as f64;
    layer("comm.time_share", share);
    layer("pair.compute_ms_p50", rank0.p50("pair.compute") * 1e3);
    // Computed from the kernels' event counts, not measured.
    let (flops, bytes) = (sum(|c| c.pair_flops), sum(|c| c.pair_bytes));
    layer("pair.flops_per_step", flops / steps);
    layer("pair.bytes_per_step", bytes / steps);
    layer(
        "pair.flop_per_byte",
        if bytes > 0.0 { flops / bytes } else { 0.0 },
    );
    layer(
        "gpusim.model_us_per_step",
        sum(|c| c.model_seconds) * 1e6 / steps,
    );
    layer("snap.ui_ms", rank0.p50("snap.ui") * 1e3);
    layer("snap.yi_ms", rank0.p50("snap.yi") * 1e3);
    layer("snap.deidrj_ms", rank0.p50("snap.deidrj") * 1e3);
    layer(
        "reaxff.qeq_iterations_p50",
        median_or_zero(&result.ranks[0].qeq_iterations),
    );
    layer("reaxff.qeq_ms", rank0.p50("reaxff.qeq") * 1e3);
    layer("reaxff.bond_order_ms", rank0.p50("reaxff.bond_order") * 1e3);
    layer("reaxff.nonbonded_ms", rank0.p50("reaxff.nonbonded") * 1e3);
    layer("fix.initial_us_p50", rank0.p50("fix.initial") * 1e6);
    layer("fix.final_us_p50", rank0.p50("fix.final") * 1e6);
    let ordinary: Vec<f64> = rank0.steps.iter().filter(|s| !s.2).map(|s| s.1).collect();
    let rebuilding: Vec<f64> = rank0.steps.iter().filter(|s| s.2).map(|s| s.0).collect();
    layer("sim.self_ms_p50", median_or_zero(&ordinary) * 1e3);
    layer("sim.rebuild_step_ms_p50", median_or_zero(&rebuilding) * 1e3);
    println!("rebuild_steps {}", rebuilding.len());

    println!("# self-time table of {} (rank 0, traced rep):", w.name);
    for line in rank0.table().lines() {
        println!("# {line}");
    }
    if let Some(path) = &args.trace_out {
        trace::write_chrome(path, &format!("{}/traced", w.name), &lanes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("# chrome trace: {}", path.display());
    }
    Ok(())
}
