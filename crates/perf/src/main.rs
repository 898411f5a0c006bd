//! `perf-smoke` — capture the deterministic smoke workloads once and
//! gate the run document on the committed baseline.
//!
//! ```text
//! perf-smoke                            # write results/perf_smoke.json
//! perf-smoke --out PATH                 # write the document elsewhere
//! perf-smoke --check results/baseline.json
//! perf-smoke --write-baseline           # refresh results/baseline.json
//! perf-smoke --trace trace.json         # also write the Perfetto timeline
//! ```
//!
//! Every run captures all six workloads (forced sequential, each under
//! its own accumulator and deterministic trace collector), writes the
//! run document — `summary`, `counters`, `metrics` and, for the
//! rank-parallel workloads, `critical_path` per workload — and prints
//! the per-rank attribution table to stderr. `--check` compares the
//! document *byte for byte*; on a mismatch both sides are parsed and
//! the drift printed as section + key. `--trace` writes the same
//! capture as a Chrome trace_event file (open at
//! <https://ui.perfetto.dev>), one process group per workload.
//!
//! Exit codes: 0 = ok, 1 = drift vs baseline, 2 = usage or I/O error.

use lkk_perf::{capture, compare};
use lkk_trace::json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_OUT: &str = "results/perf_smoke.json";
const DEFAULT_BASELINE: &str = "results/baseline.json";

const USAGE: &str =
    "usage: perf-smoke [--out PATH] [--check BASELINE] [--write-baseline] [--trace PATH]

  --out PATH         where to write the run document (default results/perf_smoke.json)
  --check BASELINE   fail (exit 1) unless the document equals BASELINE byte for byte
  --write-baseline   also write the document to results/baseline.json
  --trace PATH       also write the capture as one Perfetto timeline";

#[derive(Default)]
struct Args {
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    write_baseline: bool,
    trace: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut path = || {
            let value = it.next().ok_or(format!("{flag} needs a path"))?;
            Ok::<_, String>(Some(PathBuf::from(value)))
        };
        match flag.as_str() {
            "--out" => args.out = path()?,
            "--check" => args.check = path()?,
            "--trace" => args.trace = path()?,
            "--write-baseline" => args.write_baseline = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perf-smoke: wrote {}", path.display());
    Ok(())
}

/// The capture and its gate. `Ok(false)` on drift.
fn run_capture(args: &Args) -> Result<bool, String> {
    // Read the baseline first: a bad path should not cost a capture.
    let baseline = match &args.check {
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?,
        ),
        None => None,
    };

    // stderr only: the document must not depend on the machine.
    eprintln!(
        "perf-smoke: capturing 4 single-rank workloads + ranks4 + skewed8 \
         (forced sequential, isa {})...",
        lkk_kokkos::isa::active().name()
    );
    let captures = capture::capture_all();
    eprint!("{}", capture::attribution_text(&captures));
    let text = capture::document(&captures).to_pretty();
    write_file(args.out.as_deref().unwrap_or(Path::new(DEFAULT_OUT)), &text)?;
    if args.write_baseline {
        write_file(Path::new(DEFAULT_BASELINE), &text)?;
    }
    if let Some(path) = &args.trace {
        write_file(path, &capture::trace(&captures).to_pretty())?;
    }

    let (Some(baseline), Some(path)) = (baseline, &args.check) else {
        return Ok(true);
    };
    if baseline == text {
        eprintln!("perf-smoke: OK — byte-identical to {}", path.display());
        return Ok(true);
    }
    eprintln!(
        "perf-smoke: FAIL — run document drifted vs {} (byte comparison):",
        path.display()
    );
    match (json::parse(&baseline), json::parse(&text)) {
        (Ok(base), Ok(current)) => {
            let drifts = compare(&base, &current);
            for d in &drifts {
                eprintln!("  {d}");
            }
            if drifts.is_empty() {
                eprintln!("  (every leaf matches: key order or formatting differs)");
            }
        }
        (Err(e), _) => eprintln!("  (baseline is not parseable JSON: {e})"),
        (_, Err(e)) => eprintln!("  (current document is not parseable JSON: {e})"),
    }
    eprintln!(
        "perf-smoke: if the change is intentional, refresh with \
         `cargo run --release -p lkk-perf --bin perf-smoke -- --write-baseline`"
    );
    Ok(false)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run_capture(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perf-smoke: {msg}");
            ExitCode::from(2)
        }
    }
}
