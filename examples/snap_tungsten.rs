//! SNAP on a bcc tungsten-like lattice (the paper's §4.3 workload),
//! with all four kernel stages exercised and the one Table-2 knob the
//! host kernels execute (`ui_batch`) compared in real host wall-clock
//! time.
//!
//! Run with: `cargo run --release --example snap_tungsten`

use lammps_kk::prelude::*;
use lammps_kk::snap::{PairSnap, SnapKernelConfig, SnapParams};
use std::time::Instant;

fn build(config: SnapKernelConfig) -> Simulation {
    let lat = Lattice::new(LatticeKind::Bcc, 3.16);
    let mut atoms = AtomData::from_positions(&lat.positions(6, 6, 6));
    atoms.mass = vec![183.84];
    create_velocities(&mut atoms, &Units::metal(), 600.0, 777);
    let space = Space::Threads;
    let params = SnapParams {
        twojmax: 8,
        rcut: 4.7,
        ..Default::default()
    };
    SimulationBuilder::new(atoms, lat.domain(6, 6, 6))
        .space(space.clone())
        .units(Units::metal())
        .pair(PairSnap::new(params, &space).with_config(config))
        .dt(0.0005)
        .build()
}

#[expect(
    clippy::disallowed_methods,
    reason = "demo binary prints a human-facing elapsed-time line; not part of any gated or canonical output"
)]
fn main() {
    println!("SNAP (2J = 8, 55 bispectrum components) on bcc W, 432 atoms\n");

    // Short NVE trajectory with thermo output.
    let mut sim = build(SnapKernelConfig::default());
    sim.thermo_every = 5;
    sim.verbose = true;
    let e0 = {
        sim.setup();
        sim.total_energy()
    };
    sim.run(20);
    println!(
        "\nper-atom energy drift over 20 steps: {:.2e} eV\n",
        (sim.total_energy() - e0).abs() / sim.system.atoms.nlocal as f64
    );

    // Host wall-clock effect of the §4.3.4 Ui batching (on CPUs the
    // balance differs from GPUs — the paper's point about architecture-
    // specific tuning). `yi_batch`, `yi_tile` and `fuse_deidrj` only
    // steer the modelled device kernels (see `SnapKernelConfig`).
    for (label, config) in [
        ("ui_batch=1", SnapKernelConfig::default()),
        (
            "ui_batch=4",
            SnapKernelConfig {
                ui_batch: 4,
                ..Default::default()
            },
        ),
    ] {
        let mut sim = build(config);
        sim.setup();
        let start = Instant::now();
        sim.run(3);
        println!("host wall-clock, {label}: {:?} / 3 steps", start.elapsed());
    }
}
