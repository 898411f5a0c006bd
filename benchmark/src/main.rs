//! `lkk-benchmark`: the wall-clock MD benchmark of this repository.
//!
//! One process (the parent) plans a list of reps, runs each in a child
//! process of its own, one after the other, and turns their reports into
//! the metrics named in `BENCHMARK.json`. See `README.md`.

// The benchmark is the one place where wall clock is the point; the
// root clippy.toml bans it for the deterministic program.
#![allow(clippy::disallowed_methods)]

mod api;
mod canary;
mod child;
mod json;
mod state;
mod stats;
mod trace;
mod workloads;

use child::Report;
use stats::{low_decile, median, median_or_zero};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{SpaceKind, Workload, WORKLOADS};

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("atom_steps_per_s", "atom-steps/s"),
    ("step_ms_p50", "ms"),
    ("parallel_efficiency", "ratio"),
    ("serial_atom_steps_per_s", "atom-steps/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 53] = [
    ("exec.fork_join_us", "us"),
    ("exec.reduce_fork_join_us", "us"),
    ("exec.seq_dispatch_ns", "ns"),
    ("exec.crossover_n", "count"),
    ("exec.launches_per_step", "count"),
    ("view.transfer_bytes_per_step", "B"),
    ("scatter.add_ns_duplicated", "ns"),
    ("scatter.add_ns_atomic", "ns"),
    ("scatter.contribute_ms", "ms"),
    ("neighbor.bins_ms", "ms"),
    ("neighbor.rebuild_ms_serial", "ms"),
    ("neighbor.rebuild_ms_threads", "ms"),
    ("neighbor.working_set_ms", "ms"),
    ("neighbor.ns_per_pair", "ns"),
    ("neighbor.fill_launches_per_rebuild", "count"),
    ("neighbor.rebuilds_per_100_steps", "count"),
    ("neighbor.rebuild_gap_ms", "ms"),
    ("neighbor.phase_share", "ratio"),
    ("comm.borders_ms_p50", "ms"),
    ("comm.forward_us_p50", "us"),
    ("comm.reverse_us_p50", "us"),
    ("comm.allreduce_us_p50", "us"),
    ("comm.time_share", "ratio"),
    ("comm.halo_bytes_per_step", "B"),
    ("comm.msgs_per_step", "count"),
    ("comm.migrate_bytes_per_rebuild", "B"),
    ("comm.pool_grow_after_warmup", "count"),
    ("comm.pair_time_imbalance", "ratio"),
    ("comm.atom_imbalance", "ratio"),
    ("pair.compute_ms_p50", "ms"),
    ("pair.ns_per_pair", "ns"),
    ("pair.flop_per_byte", "flop/B"),
    ("pair.flops_per_step", "flop"),
    ("pair.bytes_per_step", "B"),
    ("gpusim.model_us_per_step", "us"),
    ("snap.ui_ms", "ms"),
    ("snap.yi_ms", "ms"),
    ("snap.deidrj_ms", "ms"),
    ("snap.rss_kb_per_atom", "kB"),
    ("reaxff.qeq_iterations_p50", "count"),
    ("reaxff.qeq_ms", "ms"),
    ("reaxff.bond_order_ms", "ms"),
    ("reaxff.nonbonded_ms", "ms"),
    ("fix.initial_us_p50", "us"),
    ("fix.final_us_p50", "us"),
    ("sim.self_ms_p50", "ms"),
    ("sim.rebuild_step_ms_p50", "ms"),
    ("sim.gather_ms", "ms"),
    ("trace.decorator_overhead_pct", "%"),
    ("trace.collector_overhead_pct", "%"),
    ("host.triad_gbs", "GB/s"),
    ("host.spin_ns", "ns"),
    ("host.canary_drift_pct", "%"),
];

/// The workers a threaded or two-rank run may use: `run.sh` pins the
/// process to two CPUs, and every workload is sized for two.
const WORKERS: f64 = 2.0;

/// A neighbor rebuild on more than a quarter of the steps means the
/// workload's mass or timestep is unphysical (see README).
const MAX_REBUILDS_PER_100_STEPS: f64 = 25.0;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None`: both.
    trace: Option<bool>,
    selftest: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--selftest] [--check]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("lkk-benchmark: refusing to measure a debug build; use run.sh");
        return ExitCode::from(2);
    }
    if std::env::var_os("LKK_SEQUENTIAL").is_some() {
        eprintln!("lkk-benchmark: refusing to run with LKK_SEQUENTIAL set");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--child") {
        return child::main(&args[1..]);
    }
    let mut options = Options {
        workload: None,
        seed: 87287,
        seconds: 10.0,
        trace: None,
        selftest: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--workload" => match value() {
                Some(name) if Workload::find(name).is_some() => {
                    options.workload = Some(name.to_string())
                }
                _ => return usage(),
            },
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(seed) => options.seed = seed,
                None => return usage(),
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if (0.1..=60.0).contains(&s) => options.seconds = s,
                _ => return usage(),
            },
            "--trace" => match value() {
                Some("0") => options.trace = Some(false),
                Some("1") => options.trace = Some(true),
                _ => return usage(),
            },
            // The rebuild-rate assertion is part of every traced run;
            // `--check` is the traced half of the suite alone.
            "--check" => options.trace = Some(true),
            "--selftest" => options.selftest = true,
            _ => return usage(),
        }
    }
    match suite(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("lkk-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Planning and running reps
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// The workload itself, untraced: the source of every end-to-end metric.
    Main,
    /// Its plain single-threaded baseline.
    Base,
    Traced,
    Collector,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Main => "main",
            Kind::Base => "base",
            Kind::Traced => "traced",
            Kind::Collector => "collector",
        }
    }
}

/// One rep that ran: what its child reported and where it left its state.
struct Job {
    workload: &'static Workload,
    kind: Kind,
    report: Report,
    dump: PathBuf,
}

/// The reps of one workload, in the order they run.
fn plan(w: &'static Workload, options: &Options) -> Vec<Kind> {
    let mut kinds = Vec::new();
    if options.selftest {
        return vec![Kind::Main, Kind::Base, Kind::Traced, Kind::Collector];
    }
    if options.trace != Some(true) {
        // The baselines are spread evenly among the reps of the workload.
        for rep in 0..w.reps {
            kinds.push(Kind::Main);
            if (rep + 1) * w.base_reps / w.reps > rep * w.base_reps / w.reps {
                kinds.push(Kind::Base);
            }
        }
    }
    if options.trace != Some(false) {
        if kinds.is_empty() {
            kinds.push(Kind::Main);
        }
        kinds.extend([Kind::Traced, Kind::Collector]);
    }
    kinds
}

fn results_dir() -> PathBuf {
    std::env::var_os("LKK_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark"))
        .join("results")
}

fn run_job(
    w: &'static Workload,
    kind: Kind,
    index: usize,
    options: &Options,
) -> Result<Job, String> {
    let (warmup, steps) = if options.selftest {
        ((w.warmup / 10).max(1), w.scaled_steps(1.0))
    } else {
        (w.warmup, w.scaled_steps(options.seconds))
    };
    let dump = results_dir().join(format!(
        "tmp_{}_{}_{}{index}.bin",
        std::process::id(),
        w.name,
        kind.name()
    ));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .arg("--child")
        .args(["--workload", w.name, "--kind", kind.name()])
        .args(["--warmup", &warmup.to_string()])
        .args(["--steps", &steps.to_string()])
        .args(["--seed", &options.seed.to_string()])
        .arg("--dump")
        .arg(&dump);
    if kind == Kind::Traced {
        command
            .arg("--trace-out")
            .arg(results_dir().join(format!("trace_{}.json", w.name)));
    }
    // `output` waits for the child to end.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let mut report = Report::parse(&String::from_utf8_lossy(&output.stdout));
    if !output.status.success() && report.error.is_none() {
        report.error = Some(format!("child ended with {}", output.status));
    }
    for line in &report.echo {
        println!("{line}");
    }
    Ok(Job {
        workload: w,
        kind,
        report,
        dump,
    })
}

/// Run the selected workloads. `Ok(false)`: a correctness check failed.
fn suite(options: &Options) -> Result<bool, String> {
    let selected: Vec<&'static Workload> = WORKLOADS
        .iter()
        .filter(|w| {
            options
                .workload
                .as_deref()
                .is_none_or(|name| name == w.name)
        })
        .collect();
    std::fs::create_dir_all(results_dir())
        .map_err(|e| format!("cannot create {}: {e}", results_dir().display()))?;
    let traced = options.trace != Some(false);
    let timed = options.trace != Some(true) || options.selftest;

    let host_before = traced.then(canary::measure);
    // Round-robin over workloads: rep 1 of each, then rep 2, ...
    let plans: Vec<Vec<Kind>> = selected.iter().map(|w| plan(w, options)).collect();
    let mut jobs = Vec::new();
    let mut outcome = Ok(());
    'rounds: for round in 0..plans.iter().map(Vec::len).max().unwrap_or(0) {
        for (w, kinds) in selected.iter().zip(&plans) {
            if let Some(&kind) = kinds.get(round) {
                match run_job(w, kind, jobs.len(), options) {
                    Ok(job) => jobs.push(job),
                    Err(error) => {
                        outcome = Err(error);
                        break 'rounds;
                    }
                }
            }
        }
    }
    let mut all_correct = true;
    let mut printed: BTreeMap<&str, Vec<Summary>> = BTreeMap::new();
    if outcome.is_ok() {
        let probes = traced.then(|| ExecProbes::measure(options.selftest));
        for w in &selected {
            let reps: Vec<&Job> = jobs.iter().filter(|j| j.workload.name == w.name).collect();
            let mut summaries = Vec::new();
            if timed {
                summaries.push(summarize_end_to_end(w, &reps));
            }
            if traced {
                let layers = probes.as_ref().expect("measured when traced");
                summaries.push(summarize_layers(w, &reps, layers, options.selftest));
            }
            printed.insert(w.name, summaries);
        }
        // The canary brackets everything measured, probes included.
        if let Some(before) = host_before {
            let after = canary::measure();
            let drift = canary::drift_pct(before, after);
            println!(
                "host canary: triad {:.2} -> {:.2} GB/s on 3 arrays of {} MiB (last-level cache {} MiB), spin {:.3} -> {:.3} ns{}",
                before.triad_gbs,
                after.triad_gbs,
                canary::triad_array_bytes() >> 20,
                canary::llc_bytes() >> 20,
                before.spin_ns,
                after.spin_ns,
                if drift > 10.0 {
                    ": the host changed by more than 10 %, this run is unresolved"
                } else {
                    ""
                }
            );
            for summaries in printed.values_mut() {
                for summary in summaries.iter_mut().filter(|s| s.traced) {
                    summary
                        .metrics
                        .insert("host.triad_gbs", 0.5 * (before.triad_gbs + after.triad_gbs));
                    summary
                        .metrics
                        .insert("host.spin_ns", 0.5 * (before.spin_ns + after.spin_ns));
                    summary.metrics.insert("host.canary_drift_pct", drift);
                }
            }
        }
    }
    for job in &jobs {
        // Best effort: a child that failed early may not have written one.
        let _ = std::fs::remove_file(&job.dump);
    }
    outcome?;

    let mut last_line = None;
    for w in &selected {
        for summary in &printed[w.name] {
            summary.print(w);
            all_correct &= summary.correct();
            last_line = Some(summary.result_line());
        }
    }
    if options.selftest {
        all_correct &= selftest_names(&selected, &printed)?;
    }
    if let (Some(_), Some(line)) = (&options.workload, last_line) {
        if options.trace.is_some() {
            // The driver's contract: one JSON object as the last line.
            println!("{line}");
        }
    }
    Ok(all_correct)
}

// ---------------------------------------------------------------------
// Turning reports into metrics
// ---------------------------------------------------------------------

/// The metrics of one workload in one mode, with its failed checks.
struct Summary {
    traced: bool,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    attempted: usize,
    failures: Vec<String>,
}

impl Summary {
    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// No check failed and every metric has a finite value.
    fn correct(&self) -> bool {
        self.failures.is_empty()
            && self
                .table()
                .iter()
                .all(|(name, _)| self.metrics.get(name).is_some_and(|v| v.is_finite()))
    }

    /// Print every metric by name with its unit, then notes and failures.
    fn print(&self, w: &Workload) {
        for &(name, unit) in self.table() {
            match self.metrics.get(name) {
                Some(value) if value.is_finite() => {
                    println!("metric {} {name} {value} {unit}", w.name)
                }
                other => println!("FAILED {}: metric {name} is {other:?}", w.name),
            }
        }
        for note in &self.notes {
            println!("note {} {note}", w.name);
        }
        println!(
            "ops {} ops_attempted {} ops_failed {}",
            w.name,
            self.attempted,
            self.failed()
        );
        for failure in &self.failures {
            println!("FAILED {}: {failure}", w.name);
        }
    }

    /// Failed reps, at most all of them: several checks can fail on one.
    fn failed(&self) -> usize {
        self.failures.len().min(self.attempted)
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .table()
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(name),
                    json::number(self.metrics.get(name).copied().unwrap_or(f64::NAN)),
                    json::quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed(),
            metrics.join(",")
        )
    }
}

/// The checks every rep must pass by itself.
fn check_rep(w: &Workload, job: &Job, failures: &mut Vec<String>) -> bool {
    let label = job.kind.name();
    let report = &job.report;
    if let Some(error) = &report.error {
        failures.push(format!("{label}: {error}"));
        return false;
    }
    let before = failures.len();
    if report.num("natoms") != w.natoms() as f64 || report.num("check.tags") != 1.0 {
        failures.push(format!("{label}: atom count or tag set changed"));
    }
    if report.num("check.finite") != 1.0 {
        failures.push(format!("{label}: non-finite x, v or f"));
    }
    let drift = report.num("check.energy_drift");
    if drift.is_nan() || drift > w.tol.energy_drift {
        failures.push(format!(
            "{label}: |dE_total|/atom {drift:e} exceeds {:e}",
            w.tol.energy_drift
        ));
    }
    let momentum = report.num("check.momentum");
    if momentum.is_nan() || momentum > w.tol.momentum {
        failures.push(format!(
            "{label}: |sum m v|/atom {momentum:e} exceeds {:e}",
            w.tol.momentum
        ));
    }
    failures.len() == before
}

/// How far apart two reps ended.
struct Difference {
    e_pair_rel: f64,
    max_dx: f64,
    /// Final energies and per-atom state equal bit for bit.
    bitwise: bool,
}

fn difference(a: &Job, b: &Job) -> Option<Difference> {
    let (ra, rb) = (&a.report, &b.report);
    let box_lengths = rb.nums("box").try_into().unwrap_or([1.0; 3]);
    let (bytes_a, bytes_b) = (std::fs::read(&a.dump).ok()?, std::fs::read(&b.dump).ok()?);
    let (states_a, states_b) = (state::decode(&bytes_a).ok()?, state::decode(&bytes_b).ok()?);
    Some(Difference {
        e_pair_rel: ((ra.num("e_pair") - rb.num("e_pair")) / rb.num("e_pair")).abs(),
        max_dx: state::max_dx(&states_a, &states_b, box_lengths),
        bitwise: bytes_a == bytes_b
            && ra.text.get("e_pair_bits") == rb.text.get("e_pair_bits")
            && ra.text.get("e_kinetic_bits") == rb.text.get("e_kinetic_bits"),
    })
}

/// Did two reps of one configuration and seed end in the same state: bit
/// for bit where the run repeats exactly (`exact`), within the workload's
/// bounds where it does not?
fn same_result(w: &Workload, exact: bool, a: &Job, b: &Job) -> bool {
    difference(a, b).is_some_and(|d| {
        if exact {
            d.bitwise
        } else {
            d.e_pair_rel <= w.tol.e_pair_rel && d.max_dx <= w.tol.max_dx
        }
    })
}

/// Compare a rep's final state with the serial baseline's.
fn check_against_baseline(
    w: &Workload,
    job: &Job,
    base: &Job,
    notes: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    let d = difference(job, base).unwrap_or(Difference {
        e_pair_rel: f64::NAN,
        max_dx: f64::NAN,
        bitwise: false,
    });
    notes.push(format!(
        "{} vs serial baseline: |dE_pair|/|E_pair| {:.3e} (bound {:e}), max |dx| {:.3e} (bound {:e})",
        job.kind.name(),
        d.e_pair_rel,
        w.tol.e_pair_rel,
        d.max_dx,
        w.tol.max_dx
    ));
    // Written so that a NaN fails.
    if !(d.e_pair_rel <= w.tol.e_pair_rel && d.max_dx <= w.tol.max_dx) {
        failures.push(format!(
            "{}: final state differs from the serial baseline: E_pair by {:e} relative, x by {:e}",
            job.kind.name(),
            d.e_pair_rel,
            d.max_dx
        ));
    }
}

/// The lower envelope of replicas: reps of one configuration and seed do
/// the same work step for step, so the fastest of them at each step is
/// that step on an undisturbed host. A shared host slows stretches of a
/// second or so by a quarter; a median over three reps does not shed
/// that, the per-step minimum does (README, "Steadiness").
fn envelope(reps: &[&Report]) -> Vec<f64> {
    let series: Vec<Vec<f64>> = reps.iter().map(|r| r.nums("step_ms")).collect();
    let steps = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..steps)
        .map(|i| series.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Atom-steps per second over a series of step periods.
fn rate(natoms: usize, step_ms: &[f64]) -> f64 {
    natoms as f64 * step_ms.len() as f64 / (step_ms.iter().sum::<f64>() * 1e-3)
}

fn summarize_end_to_end(w: &'static Workload, reps: &[&Job]) -> Summary {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let timed: Vec<&&Job> = reps
        .iter()
        .filter(|j| matches!(j.kind, Kind::Main | Kind::Base))
        .collect();
    let good: Vec<&&Job> = timed
        .iter()
        .copied()
        .filter(|j| check_rep(w, j, &mut failures))
        .collect();
    let worst = |key: &str| good.iter().map(|j| j.report.num(key)).fold(0.0, f64::max);
    notes.push(format!(
        "largest |dE_total|/atom {:.3e} (bound {:e}), largest |sum m v|/atom {:.3e} (bound {:e})",
        worst("check.energy_drift"),
        w.tol.energy_drift,
        worst("check.momentum"),
        w.tol.momentum
    ));
    let of = |kind: Kind| -> Vec<&Report> {
        good.iter()
            .filter(|j| j.kind == kind)
            .map(|j| &j.report)
            .collect()
    };
    let (mains, bases) = (of(Kind::Main), of(Kind::Base));

    // Reps of one configuration and seed do the same work step for step
    // (the premise of the envelope below), so they end in the same bits.
    for kind in [Kind::Main, Kind::Base] {
        let mut same = good.iter().filter(|j| j.kind == kind);
        if let Some(first) = same.next() {
            // A serial run has one summation order and always repeats.
            let exact = w.reproducible || kind == Kind::Base;
            if !same.all(|other| same_result(w, exact, first, other)) {
                failures.push(format!("{}: reps of one seed differ", kind.name()));
            }
        }
    }
    let first = |kind: Kind| good.iter().find(|j| j.kind == kind);
    if let (Some(main), Some(base)) = (first(Kind::Main), first(Kind::Base)) {
        check_against_baseline(w, main, base, &mut notes, &mut failures);
    }

    let mut metrics = BTreeMap::new();
    let mut setup: Vec<f64> = mains.iter().map(|r| r.num("setup_s")).collect();
    let mut rss: Vec<f64> = mains.iter().map(|r| r.num("vm_hwm_kb") / 1024.0).collect();
    let (step_ms, base_step_ms) = (envelope(&mains), envelope(&bases));
    let (rate, base_rate) = (rate(w.natoms(), &step_ms), rate(w.natoms(), &base_step_ms));
    notes.push(format!(
        "samples: {} set-ups; lower envelope of {} reps and of {} baseline reps, {} timed steps each",
        setup.len(),
        mains.len(),
        bases.len(),
        step_ms.len()
    ));
    metrics.insert("setup_s", median(&mut setup));
    metrics.insert("atom_steps_per_s", rate);
    metrics.insert("step_ms_p50", median_or_zero(&step_ms));
    metrics.insert("parallel_efficiency", rate / (WORKERS * base_rate));
    metrics.insert("serial_atom_steps_per_s", base_rate);
    metrics.insert("peak_rss_mb", median(&mut rss));
    Summary {
        traced: false,
        metrics,
        notes,
        attempted: timed.len(),
        failures,
    }
}

/// Layer probes that do not depend on the workload, measured once.
struct ExecProbes {
    fork_join_us: f64,
    reduce_fork_join_us: f64,
    seq_dispatch_ns: f64,
    crossover_n: f64,
    calls: usize,
}

impl ExecProbes {
    fn measure(quick: bool) -> ExecProbes {
        let calls = if quick { 5 } else { 15 };
        let threads = SpaceKind::Threads;
        // The smallest power of two from which on forking pays for a body
        // of about 50 flops (by a tenth, at it and at every larger size:
        // below the fork threshold both spaces run the same loop and
        // differ by noise); 2^17 stands for "not up to 2^16".
        let sizes: Vec<usize> = (8..=16).map(|k| 1usize << k).collect();
        let pays: Vec<bool> = sizes
            .iter()
            .map(|&n| {
                api::probe_flop_body(threads, n, calls)
                    < 0.9 * api::probe_flop_body(SpaceKind::Serial, n, calls)
            })
            .collect();
        let crossover = match pays.iter().rposition(|&p| !p) {
            None => sizes[0],
            Some(last_loss) => sizes.get(last_loss + 1).copied().unwrap_or(1 << 17),
        };
        ExecProbes {
            fork_join_us: api::probe_parallel_for(threads, 4096, 20 * calls) * 1e6,
            reduce_fork_join_us: api::probe_parallel_reduce(threads, 4096, 20 * calls) * 1e6,
            seq_dispatch_ns: api::probe_parallel_for(threads, 1024, 200 * calls) * 1e9,
            crossover_n: crossover as f64,
            calls,
        }
    }
}

fn summarize_layers(
    w: &'static Workload,
    reps: &[&Job],
    exec: &ExecProbes,
    selftest: bool,
) -> Summary {
    let mut failures = Vec::new();
    let mut notes = Vec::new();
    let find = |kind: Kind| reps.iter().copied().find(|j| j.kind == kind);
    let jobs: Vec<&Job> = [Kind::Main, Kind::Traced, Kind::Collector]
        .into_iter()
        .filter_map(find)
        .collect();
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let all_good = jobs.iter().all(|j| check_rep(w, j, &mut failures)) && jobs.len() == 3;
    if all_good {
        let (main, traced, collector) = (jobs[0], jobs[1], jobs[2]);
        let (plain, spans, collected) = (&main.report, &traced.report, &collector.report);
        // Decorator transparency: same thread count, same chunking, so a
        // decorator that forwards every method changes no bit.
        for (job, label) in [(traced, "traced"), (collector, "collector")] {
            if !same_result(w, w.reproducible, main, job) {
                failures.push(format!(
                    "{label}: final energies or per-atom state differ from the untraced rep"
                ));
            }
        }
        for &(name, _) in &PER_LAYER {
            if let Some(&value) = spans.layers.get(name) {
                metrics.insert(name, value);
            }
        }
        let steps_run = plain.num("steps_run").max(1.0);
        let rebuilds = plain.num("rebuilds");
        // The first build belongs to set-up, not to a step.
        let per_100 = 100.0 * (rebuilds - 1.0).max(0.0) / steps_run;
        metrics.insert("neighbor.rebuilds_per_100_steps", per_100);
        if per_100 >= MAX_REBUILDS_PER_100_STEPS && !selftest {
            failures.push(format!(
                "main: {per_100:.1} neighbor rebuilds per 100 steps (limit {MAX_REBUILDS_PER_100_STEPS}): unphysical mass or timestep"
            ));
        }
        metrics.insert("neighbor.phase_share", plain.num("neighbor_share"));
        metrics.insert(
            "comm.halo_bytes_per_step",
            plain.num("halo_bytes") / steps_run,
        );
        metrics.insert("comm.msgs_per_step", plain.num("msgs") / steps_run);
        metrics.insert(
            "comm.migrate_bytes_per_rebuild",
            plain.num("migrate_bytes") / rebuilds.max(1.0),
        );
        metrics.insert("comm.pool_grow_after_warmup", plain.num("pool_grow"));
        metrics.insert("comm.pair_time_imbalance", plain.num("pair_imbalance"));
        metrics.insert("comm.atom_imbalance", plain.num("atom_imbalance"));
        metrics.insert(
            "snap.rss_kb_per_atom",
            plain.num("vm_hwm_kb") / w.natoms() as f64,
        );
        metrics.insert("sim.gather_ms", plain.num("gather_ms"));
        let pairs_per_rank = plain.num("total_pairs") / plain.num("nranks").max(1.0);
        let pair_ms = metrics
            .get("pair.compute_ms_p50")
            .copied()
            .unwrap_or(f64::NAN);
        metrics.insert("pair.ns_per_pair", pair_ms * 1e6 / pairs_per_rank.max(1.0));
        // One rep each, so compare their undisturbed step times, not
        // their medians: a slow second on the host moves a median by tens
        // of percent.
        let floor = |r: &Report| low_decile(&r.nums("step_ms"));
        metrics.insert(
            "trace.decorator_overhead_pct",
            100.0 * (floor(spans) / floor(plain) - 1.0),
        );
        metrics.insert(
            "trace.collector_overhead_pct",
            100.0 * (floor(collected) / floor(plain) - 1.0),
        );
        notes.push(format!(
            "traced rep: {} timed steps, {} of them rebuild steps",
            spans.nums("step_ms").len(),
            spans.num("rebuild_steps")
        ));

        match state::read(&main.dump) {
            Ok(states) => probe_neighbor(w, &states, exec.calls, &mut metrics, &mut notes),
            Err(e) => failures.push(format!("main: cannot read the final state back: {e}")),
        }
    }
    metrics.insert("exec.fork_join_us", exec.fork_join_us);
    metrics.insert("exec.reduce_fork_join_us", exec.reduce_fork_join_us);
    metrics.insert("exec.seq_dispatch_ns", exec.seq_dispatch_ns);
    metrics.insert("exec.crossover_n", exec.crossover_n);
    Summary {
        traced: true,
        metrics,
        notes,
        attempted: jobs.len(),
        failures,
    }
}

/// Isolated timed calls on the workload's own final state: bins, the
/// neighbor-list rebuild in the serial and in the forking space, the
/// working-set sample, and scatter adds over the list's own rows.
fn probe_neighbor(
    w: &Workload,
    states: &[api::AtomState],
    calls: usize,
    metrics: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    let forking = match w.space {
        SpaceKind::Device => SpaceKind::Device,
        _ => SpaceKind::Threads,
    };
    let mut serial = api::NeighborProbe::new(w.problem, SpaceKind::Serial, states);
    let serial_ms = serial.rebuild_seconds(calls) * 1e3;
    drop(serial);
    let mut probe = api::NeighborProbe::new(w.problem, forking, states);
    let threads_ms = probe.rebuild_seconds(calls) * 1e3;
    metrics.insert("neighbor.rebuild_ms_serial", serial_ms);
    metrics.insert("neighbor.rebuild_ms_threads", threads_ms);
    metrics.insert(
        "neighbor.ns_per_pair",
        threads_ms * 1e6 / probe.total_pairs().max(1) as f64,
    );
    metrics.insert("neighbor.bins_ms", probe.bins_seconds(calls) * 1e3);
    metrics.insert(
        "neighbor.working_set_ms",
        probe.working_set_seconds(calls) * 1e3,
    );
    metrics.insert(
        "scatter.add_ns_duplicated",
        probe.scatter_add_seconds(false, calls) * 1e9,
    );
    metrics.insert(
        "scatter.add_ns_atomic",
        probe.scatter_add_seconds(true, calls) * 1e9,
    );
    metrics.insert(
        "scatter.contribute_ms",
        probe.contribute_seconds(calls) * 1e3,
    );
    notes.push(format!(
        "probes: median of {calls} calls on {} owned + ghost atoms, {} stored pairs",
        probe.nall(),
        probe.total_pairs()
    ));
}

// ---------------------------------------------------------------------
// Self-test
// ---------------------------------------------------------------------

/// Every name in `BENCHMARK.json` is printed exactly once per workload
/// with a finite value, names are well formed, and nothing else is.
fn selftest_names(
    selected: &[&'static Workload],
    printed: &BTreeMap<&str, Vec<Summary>>,
) -> Result<bool, String> {
    let path = Path::new("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let document = json::parse(&text).map_err(|e| format!("{path:?}: {e}"))?;
    let names = |key: &str| -> Vec<(String, String)> {
        document
            .get(key)
            .map(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let mut ok = true;
    let mut complain = |message: String| {
        println!("FAILED selftest: {message}");
        ok = false;
    };
    let declared: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    if declared != ours {
        complain(format!(
            "workloads {declared:?} in BENCHMARK.json, {ours:?} in the benchmark"
        ));
    }
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared = names(key);
        let ours: Vec<(String, String)> = table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if declared != ours {
            complain(format!(
                "{key} of BENCHMARK.json and of the benchmark differ"
            ));
        }
        for (name, _) in &declared {
            let well_formed = !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            if !well_formed {
                complain(format!("metric name {name:?} is not [A-Za-z0-9_.-]+"));
            }
        }
    }
    for w in selected {
        for summary in &printed[w.name] {
            for &(name, _) in summary.table() {
                if !summary.metrics.get(name).is_some_and(|v| v.is_finite()) {
                    complain(format!("{}: {name} has no finite value", w.name));
                }
            }
            if summary.metrics.len() != summary.table().len() {
                complain(format!(
                    "{}: a metric outside BENCHMARK.json was computed",
                    w.name
                ));
            }
            if summary.failed() != 0 {
                complain(format!("{}: ops_failed = {}", w.name, summary.failed()));
            }
        }
    }
    println!("selftest {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}
