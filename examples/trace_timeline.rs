//! Capture a wall-clock trace timeline of a rank-parallel LJ melt and
//! write it as Chrome trace_event JSON for Perfetto.
//!
//! Run with: `cargo run --release --example trace_timeline`
//!
//! Then open <https://ui.perfetto.dev> and drag `lj_trace.json` in (or
//! use `chrome://tracing`). What you will see:
//!
//! * **host** process (`pid 0`): one track per simulated MPI rank
//!   (`rank0`..`rank3`) with the nested region spans of the MD loop —
//!   `step/pair`, `step/comm/fwd/{pack,send,recv,unpack}`, pool
//!   `reclaim` blocking, neighbor rebuilds — plus instant markers for
//!   per-edge exchange bytes and counter tracks for owned/ghost atoms.
//! * **gpusim (predicted)** process (`pid 1`): the cost-model device
//!   timeline — one complete event per kernel launch whose duration is
//!   the `lkk-gpusim` prediction for the chosen architecture.
//!
//! This example uses wall-clock mode (microsecond timestamps, real
//! concurrency visible). CI uses the deterministic mode instead, where
//! timestamps are per-lane logical ticks and the bytes never change —
//! see `perf-smoke --trace` and `docs/observability.md`.

use lammps_kk::gpusim::GpuArch;
use lammps_kk::kokkos::profile;
use lammps_kk::prelude::*;
use lammps_kk::trace::TraceCollector;
use std::sync::Arc;

fn main() {
    let cells = 6; // 864 atoms over 4 ranks
    let steps = 20u64;
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let mut atoms = AtomData::from_positions(&lat.positions(cells, cells, cells));
    create_velocities(&mut atoms, &Units::lj(), 1.44, 87287);

    let collector = Arc::new(TraceCollector::wall(GpuArch::h100()));
    let id = profile::register_subscriber(collector.clone());
    // The unified driver: one `RunSpec` for any CommSpec (drop the
    // `.comm(..)` and the same code runs in-process on one rank).
    let run = RunSpec::new(&atoms, lat.domain(cells, cells, cells), steps)
        .comm(CommSpec::Brick {
            ranks: 4,
            balance: None,
        })
        .run(|_, system| {
            let pair = PairKokkos::with_options(
                LjCut::single_type(1.0, 1.0, 2.5),
                &Space::Serial,
                PairKokkosOptions {
                    force_half: Some(true),
                    ..Default::default()
                },
            );
            Simulation::new(system, Box::new(pair))
        })
        .expect("fault-free rank-parallel run failed");
    profile::unregister_subscriber(id);

    let json = collector.export_chrome();
    let path = "lj_trace.json";
    std::fs::write(path, &json).expect("writing trace");

    println!(
        "Ran {} atoms for {} steps on {} simulated ranks.",
        run.natoms, run.steps, run.nranks
    );
    println!(
        "Atom imbalance {:.3}, pair-time imbalance {:.3} (max/mean over ranks).",
        run.atom_imbalance(),
        run.pair_time_imbalance()
    );
    println!(
        "Wrote {path} ({} lanes, {} KiB) — open it at https://ui.perfetto.dev",
        collector.lane_count(),
        json.len() / 1024
    );

    // The same collector doubles as the metrics sink: exchange bytes
    // and the per-rank census land in the registry as it records.
    let metrics = collector.metrics();
    if let Some(grow) = metrics.counter("rank0/pool_grow") {
        println!("rank0 requested {grow} words of message-pool growth.");
    }
    for rank in 0..run.nranks {
        if let Some(owned) = metrics.gauge(&format!("rank{rank}/owned_atoms")) {
            println!("rank{rank} finished owning {owned} atoms.");
        }
    }

    // And as the critical-path analyzer: the flow events the comm layer
    // stamped let it chain the per-rank timelines into a step DAG and
    // say which rank each step was actually waiting on. Wall-clock mode
    // here, so durations are µs (CI gates the deterministic-tick
    // variant via `perf-smoke --check`).
    let report = collector.critical_path();
    println!(
        "\nCritical path: {:.0} of {:.0} µs stepped time across {} steps; \
         {} cross-rank flows ({} dangling).",
        report.critical_time,
        report.total_time,
        report.nsteps,
        report.flows_complete,
        report.flows_dangling
    );
    for rank in &report.ranks {
        println!(
            "  {:<6} compute {:>8.0}  pack {:>6.0}  wire_wait {:>8.0}  \
             unpack {:>6.0}  retry {:>4.0}  slack {:>8.0} µs",
            rank.lane, rank.compute, rank.pack, rank.wire_wait, rank.unpack, rank.retry, rank.slack
        );
    }
    println!("Top critical-path spans per step (first 5 steps, top 3 each):");
    for step in report.steps.iter().take(5) {
        let mut spans: Vec<_> = step.path.iter().collect();
        spans.sort_by(|a, b| b.duration.total_cmp(&a.duration));
        let top: Vec<String> = spans
            .iter()
            .take(3)
            .map(|s| format!("{}:{} {:.0}µs", s.lane, s.name, s.duration))
            .collect();
        println!(
            "  step {:>2} ({:>6.0} µs critical): {}",
            step.index,
            step.critical,
            top.join(", ")
        );
    }
}
