//! SNAP physics gate at the benchmark's order, through the pair style.
//!
//! `PairSnap` at 2J = 8, `rcut` 4.7 (the `snap_w_2k` workload's
//! parameters) on a jittered 4×4×4 bcc tungsten cell: forces are the
//! energy gradient, momentum is conserved, the virial is consistent,
//! the energy is a rotation invariant, and NVE holds its energy. These
//! are statements about the physics, not about any earlier version of
//! the kernels, so they license refreshing the bit-level baselines
//! when the kernels' arithmetic is reorganised.

use lammps_kk::core::comm::{build_ghosts, reverse_forces};
use lammps_kk::prelude::*;

const CELLS: usize = 4;
const A0: f64 = 3.16;

/// Jittered bcc positions (deterministic, ±0.06 Å per coordinate).
fn jittered_bcc() -> (Vec<[f64; 3]>, Domain) {
    let lat = Lattice::new(LatticeKind::Bcc, A0);
    let mut pos = lat.positions(CELLS, CELLS, CELLS);
    for (i, p) in pos.iter_mut().enumerate() {
        for (k, x) in p.iter_mut().enumerate() {
            *x += 0.12 * (((i * 29 + k * 11) % 31) as f64 / 31.0 - 0.5);
        }
    }
    (pos, lat.domain(CELLS, CELLS, CELLS))
}

fn snap(twojmax: usize, space: &Space) -> PairSnap {
    let params = SnapParams {
        twojmax,
        rcut: 4.7,
        ..Default::default()
    };
    PairSnap::new(params, space)
}

struct Evaluation {
    results: PairResults,
    /// Owned-atom forces after the reverse communication.
    forces: Vec<[f64; 3]>,
    /// `Σ x·f` over owned and ghost atoms before it.
    x_dot_f: f64,
}

/// One force evaluation of `positions` in `domain` at 2J = 8.
fn evaluate(positions: &[[f64; 3]], domain: &Domain, eflag: bool) -> Evaluation {
    let space = Space::Serial;
    let mut pair = snap(8, &space);
    let atoms = AtomData::from_positions(positions);
    let mut system = System::new(atoms, *domain, space.clone()).with_units(Units::metal());
    let settings = NeighborSettings::new(pair.cutoff(), 0.3, false);
    system.atoms.wrap_positions(&system.domain);
    system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
    let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
    let results = pair.compute(&mut system, &list, eflag);
    system.atoms.sync(&Space::Serial, Mask::F);
    let x_dot_f = (0..system.atoms.nall())
        .map(|i| {
            let (x, f) = (system.atoms.pos(i), system.atoms.f.h_view().get3(i));
            x[0] * f[0] + x[1] * f[1] + x[2] * f[2]
        })
        .sum();
    reverse_forces(&mut system.atoms, &system.ghosts);
    let fh = system.atoms.f.h_view();
    let forces = (0..system.atoms.nlocal).map(|i| fh.get3(i)).collect();
    Evaluation {
        results,
        forces,
        x_dot_f,
    }
}

#[test]
fn forces_are_the_energy_gradient_and_sum_to_zero() {
    let (pos, domain) = jittered_bcc();
    let ev = evaluate(&pos, &domain, false);
    assert_eq!(
        ev.results,
        PairResults::default(),
        "eflag off tallies nothing"
    );
    // −∂E/∂x by central differences against the eflag-off forces.
    let h = 1e-4;
    let fmax = ev
        .forces
        .iter()
        .flatten()
        .fold(0.0f64, |m, f| m.max(f.abs()));
    assert!(fmax > 1e-3, "jitter produced no force ({fmax})");
    for atom in (0..pos.len()).step_by(pos.len() / 8).take(8) {
        for dir in 0..3 {
            let energy_at = |shift: f64| {
                let mut moved = pos.clone();
                moved[atom][dir] += shift;
                evaluate(&moved, &domain, true).results.energy
            };
            let fd = -(energy_at(h) - energy_at(-h)) / (2.0 * h);
            let f = ev.forces[atom][dir];
            assert!(
                (f - fd).abs() <= 1e-6 * fmax,
                "atom {atom} dir {dir}: force {f} vs -dE/dx {fd} (scale {fmax})"
            );
        }
    }
    for dir in 0..3 {
        let net: f64 = ev.forces.iter().map(|f| f[dir]).sum();
        assert!(
            net.abs() <= 1e-9 * pos.len() as f64,
            "net force {net} along {dir}"
        );
    }
}

#[test]
fn virial_is_consistent() {
    let (pos, domain) = jittered_bcc();
    let ev = evaluate(&pos, &domain, true);
    let (w, t) = (ev.results.virial, ev.results.virial_tensor);
    assert_eq!(w, t[0] + t[1] + t[2], "scalar virial is the tensor's trace");
    // Σ_pairs d·f over every (atom, neighbor) pair is Σ x·f over owned
    // and ghost atoms: each pair adds f at x_j and −f at x_i.
    assert!(
        (w - ev.x_dot_f).abs() <= 1e-10 * w.abs().max(1.0),
        "virial {w} vs sum x.f {}",
        ev.x_dot_f
    );
    assert!(w.abs() > 1e-6, "virial vanished");
}

#[test]
fn energy_is_invariant_under_rigid_rotation() {
    // The cell's atoms as a free cluster in a box too large for any
    // periodic image to come within the cutoff.
    let (pos, _) = jittered_bcc();
    let side = 40.0;
    let domain = Domain::cubic(side);
    let mid = CELLS as f64 * A0 / 2.0;
    let (a, b, g) = (0.7f64, -1.1f64, 2.3f64);
    let rotate = |v: [f64; 3]| -> [f64; 3] {
        // Rz(a) then Ry(b) then Rx(g).
        let v1 = [
            a.cos() * v[0] - a.sin() * v[1],
            a.sin() * v[0] + a.cos() * v[1],
            v[2],
        ];
        let v2 = [
            b.cos() * v1[0] + b.sin() * v1[2],
            v1[1],
            -b.sin() * v1[0] + b.cos() * v1[2],
        ];
        [
            v2[0],
            g.cos() * v2[1] - g.sin() * v2[2],
            g.sin() * v2[1] + g.cos() * v2[2],
        ]
    };
    let placed = |turn: bool| -> Vec<[f64; 3]> {
        pos.iter()
            .map(|p| {
                let v = [p[0] - mid, p[1] - mid, p[2] - mid];
                let v = if turn { rotate(v) } else { v };
                [v[0] + side / 2.0, v[1] + side / 2.0, v[2] + side / 2.0]
            })
            .collect()
    };
    let e0 = evaluate(&placed(false), &domain, true).results.energy;
    let e1 = evaluate(&placed(true), &domain, true).results.energy;
    assert!(e0.abs() > 1e-3, "cluster energy vanished ({e0})");
    assert!(
        (e0 - e1).abs() <= 1e-10 * e0.abs(),
        "energy {e0} became {e1} under rotation"
    );
}

#[test]
fn nve_holds_its_energy_over_500_steps() {
    let space = Space::Threads;
    let lat = Lattice::new(LatticeKind::Bcc, A0);
    let mut atoms = AtomData::from_positions(&lat.positions(CELLS, CELLS, CELLS));
    create_velocities(&mut atoms, &Units::metal(), 300.0, 87287);
    let system = System::new(atoms, lat.domain(CELLS, CELLS, CELLS), space.clone())
        .with_units(Units::metal());
    let mut sim = Simulation::new(system, Box::new(snap(4, &space)));
    sim.dt = 0.0005;
    sim.setup();
    let n = sim.system.atoms.nlocal as f64;
    let e0 = sim.total_energy();
    let mut worst = 0.0f64;
    for _ in 0..10 {
        sim.run(50);
        worst = worst.max(((sim.total_energy() - e0) / n).abs());
    }
    // Measured 1.7e-5 eV/atom at this step (0.5 fs, the benchmark's),
    // falling with its square: velocity-Verlet's bounded fluctuation,
    // 0.04 % of the 39 meV/atom the velocities start with.
    assert!(worst < 5e-5, "per-atom energy drift {worst} eV");
}
