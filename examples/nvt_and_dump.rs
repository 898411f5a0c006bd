//! A realistic small workflow: perturb an EAM metal crystal, run
//! thermostatted dynamics with trajectory dumping, and write a LAMMPS
//! data file of the final state.
//!
//! Exercises: the EAM many-body style (Fig. 1's communication pattern),
//! `fix nvt`, the extended-XYZ dump fix, the timing breakdown, and
//! data-file round-tripping.
//!
//! Run with: `cargo run --release --example nvt_and_dump`

use lammps_kk::core::{data_io, dump::XyzDump, fix::FixNvt};
use lammps_kk::prelude::*;

fn main() {
    // A Cu-like fcc crystal, rattled hard.
    let lat = Lattice::new(LatticeKind::Fcc, 3.61);
    let positions: Vec<[f64; 3]> = lat
        .positions(4, 4, 4)
        .iter()
        .enumerate()
        .map(|(i, p)| {
            [
                p[0] + 0.25 * (((i * 7) % 13) as f64 / 13.0 - 0.5),
                p[1] + 0.25 * (((i * 11) % 17) as f64 / 17.0 - 0.5),
                p[2] + 0.25 * (((i * 5) % 19) as f64 / 19.0 - 0.5),
            ]
        })
        .collect();
    let mut atoms = AtomData::from_positions(&positions);
    atoms.mass = vec![63.546];
    let mut sim = SimulationBuilder::new(atoms, lat.domain(4, 4, 4))
        .space(Space::Threads)
        .units(Units::metal())
        .pair(PairEam::new(EamParams::default()))
        .dt(0.002)
        .build();

    // 1. Heat to 300 K under Nosé-Hoover (FixNvt integrates by itself),
    //    dumping a trajectory frame every 25 steps.
    sim.fixes = vec![Box::new(FixNvt::new(300.0, 0.05))];
    let dump = XyzDump::new(Vec::new(), 25, &["Cu"]);
    sim.fixes.push(Box::new(dump));
    sim.thermo_every = 50;
    sim.verbose = true;
    sim.run(200);

    // 2. Write the final state as a LAMMPS data file.
    let mut buf = Vec::new();
    data_io::write_data(&mut buf, &sim.system.atoms, &sim.system.domain, 1).unwrap();
    println!(
        "\nwrote LAMMPS data file ({} bytes); first lines:",
        buf.len()
    );
    for line in String::from_utf8_lossy(&buf).lines().take(8) {
        println!("  {line}");
    }
}
