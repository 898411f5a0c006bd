//! Cross-crate integration: input scripts driving all three potentials
//! through the full engine (registry → styles → neighbor → comm →
//! integration → thermo), on host and simulated-device spaces.

use lammps_kk::core::input::Lammps;
use lammps_kk::core::style::StyleRegistry;
use lammps_kk::reaxff::PairReaxff;
use lammps_kk::snap::PairSnap;

/// The full registry a downstream user would assemble.
fn full_registry() -> StyleRegistry {
    let mut reg = StyleRegistry::core();
    PairSnap::register(&mut reg);
    PairReaxff::register(&mut reg);
    reg
}

#[test]
fn registry_exposes_all_styles_in_both_forms() {
    let names = full_registry().pair_names();
    for base in ["lj/cut", "morse", "snap", "reaxff"] {
        assert!(names.contains(&base.to_string()), "{base} missing");
        assert!(names.contains(&format!("{base}/kk")), "{base}/kk missing");
    }
}

#[test]
fn lj_script_device_and_host_agree() {
    let base = r#"
        units lj
        lattice fcc 0.8442
        create_box 5 5 5
        create_atoms
        mass 1 1.0
        velocity all create 1.44 12345
        pair_style lj/cut 2.5
        pair_coeff 1 1 1.0 1.0
        fix 1 all nve
        timestep 0.005
        thermo 25
        run 50
    "#;
    let mut host = Lammps::new(full_registry());
    host.run_script(base).unwrap();
    let dev_script = base.replace(
        "pair_style lj/cut 2.5",
        "package kokkos device mi300a\nsuffix kk\npair_style lj/cut 2.5",
    );
    let mut dev = Lammps::new(full_registry());
    dev.run_script(&dev_script).unwrap();
    let e_host = host.sim.as_mut().unwrap().total_energy();
    let e_dev = dev.sim.as_mut().unwrap().total_energy();
    assert!(
        (e_host - e_dev).abs() < 1e-6 * e_host.abs(),
        "host {e_host} vs device {e_dev}"
    );
    // The device run logged kernels for the performance model.
    let sim = dev.sim.as_ref().unwrap();
    let log = &sim.system.space.device_ctx().unwrap().log;
    let launches: f64 = log.aggregate().iter().map(|k| k.launches).sum();
    assert!(launches > 100.0, "{launches} device launches");
}

#[test]
fn snap_script_runs_under_global_suffix() {
    let script = r#"
        units metal
        lattice bcc 0.1266
        create_box 4 4 4
        create_atoms
        mass 1 183.84
        velocity all create 300.0 777
        suffix kk
        pair_style snap 4 3.5
        timestep 0.0005
        fix 1 all nve
        run 5
    "#;
    let mut lmp = Lammps::new(full_registry());
    lmp.run_script(script).unwrap();
    let sim = lmp.sim.as_mut().unwrap();
    assert_eq!(sim.pair.name(), "snap/kk");
    assert_eq!(sim.system.atoms.nlocal, 128);
    assert!(sim.total_energy().is_finite());
}

#[test]
fn reaxff_script_equilibrates_charges() {
    // HNS-like parameterization is built into the style; build a small
    // CO-like diatomic grid via the lattice commands (types default to
    // 0 = carbon) just to exercise the pipeline end-to-end.
    let script = r#"
        units metal
        atom_types 4
        lattice sc 0.008
        create_box 4 4 4
        create_atoms
        mass 1 12.0
        mass 2 1.0
        mass 3 14.0
        mass 4 16.0
        pair_style reaxff
        timestep 0.0001
        fix 1 all nve
        run 2
    "#;
    let mut lmp = Lammps::new(full_registry());
    lmp.run_script(script).unwrap();
    let sim = lmp.sim.as_ref().unwrap();
    let pair = sim
        .pair
        .as_any()
        .downcast_ref::<PairReaxff>()
        .expect("reaxff style");
    // All same type → all charges zero; QEq still ran.
    assert!(pair.last_charges.iter().all(|q| q.abs() < 1e-8));
}

#[test]
fn simulated_mpi_decomposition_matches_reference() {
    use lammps_kk::core::atom::AtomData;
    use lammps_kk::core::comm::CommSpec;
    use lammps_kk::core::driver::RunSpec;
    use lammps_kk::core::lattice::{Lattice, LatticeKind};
    use lammps_kk::core::pair::lj::LjCut;
    use lammps_kk::core::pair::{PairKokkos, PairKokkosOptions};
    use lammps_kk::core::sim::Simulation;
    use lammps_kk::kokkos::Space;

    // 6³ cells: a 6-rank grid (1×2×3) needs every split dimension at
    // least one ghost cutoff wide and every unsplit dimension at least
    // two — the brick comm layer's minimum-image preconditions.
    let n = 6;
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let positions: Vec<[f64; 3]> = lat
        .positions(n, n, n)
        .iter()
        .enumerate()
        .map(|(i, p)| {
            [
                p[0] + 0.03 * ((i % 5) as f64 - 2.0),
                p[1] + 0.03 * ((i % 7) as f64 - 3.0),
                p[2],
            ]
        })
        .collect();
    let atoms = AtomData::from_positions(&positions);
    let spec = RunSpec::new(&atoms, lat.domain(n, n, n), 8);
    let run_at = |nranks: usize| {
        let spec = spec.clone().comm(CommSpec::Brick {
            ranks: nranks,
            balance: None,
        });
        spec.run(|_, system| {
            let pair = PairKokkos::with_options(
                LjCut::single_type(1.0, 1.0, 2.5),
                &Space::Serial,
                PairKokkosOptions {
                    force_half: Some(true),
                    ..Default::default()
                },
            );
            let mut sim = Simulation::new(system, Box::new(pair));
            sim.dt = 0.002;
            sim
        })
        .expect("fault-free run failed")
    };
    let r1 = run_at(1);
    let r6 = run_at(6);
    assert_eq!(r1.states.len(), r6.states.len());
    for (a, b) in r1.states.iter().zip(&r6.states) {
        assert_eq!(a.tag, b.tag);
        for k in 0..3 {
            assert!((a.x[k] - b.x[k]).abs() < 1e-9);
        }
    }
    assert!((r1.e_pair - r6.e_pair).abs() < 1e-8 * r1.e_pair.abs().max(1.0));
    // The per-rank ownership census satellite: 6 ranks cover all atoms.
    assert_eq!(r6.owned_atoms.len(), 6);
    assert_eq!(r6.owned_atoms.iter().sum::<usize>(), positions.len());
    assert!(r6.atom_imbalance() >= 1.0 && r6.pair_time_imbalance() >= 1.0);
}

#[test]
fn write_data_read_data_round_trip_through_scripts() {
    let dir = std::env::temp_dir().join("lkk_data_roundtrip.data");
    let path = dir.to_str().unwrap().to_string();
    let script = format!(
        "units lj\nlattice fcc 0.8442\ncreate_box 4 4 4\ncreate_atoms\nmass 1 1.0\nvelocity all create 1.44 42\npair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\nfix 1 all nve\nrun 10\nwrite_data {path}"
    );
    let mut a = Lammps::new(full_registry());
    a.run_script(&script).unwrap();
    let e_a = a.sim.as_mut().unwrap().total_energy();

    // Restart from the data file and evaluate the same state.
    let script_b = format!(
        "units lj\nread_data {path}\npair_style lj/cut 2.5\npair_coeff 1 1 1.0 1.0\nfix 1 all nve\nrun 0"
    );
    let mut b = Lammps::new(full_registry());
    b.run_script(&script_b).unwrap();
    let e_b = b.sim.as_mut().unwrap().total_energy();
    assert!(
        (e_a - e_b).abs() < 1e-9 * e_a.abs(),
        "restart energy {e_b} vs {e_a}"
    );
    std::fs::remove_file(&path).ok();
}
