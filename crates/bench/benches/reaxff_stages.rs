//! Per-stage wall-clock microbenchmarks of a ReaxFF step (Criterion)
//! on the benchmark's 2 250-atom HNS crystal, through the same entry
//! points `pair_style reaxff` calls: the QEq matrix build, the dual-CG
//! solve from the zero guess and from a four-deep charge history, and
//! the non-bonded kernel with and without the energy/virial tallies.
//!
//! This is the stage split behind the ladder in `docs/performance.md`
//! ("ReaxFF: warm start, one pair routine, one workspace"); the
//! end-to-end rows there come from `benchmark/run.sh`.

use criterion::{criterion_group, criterion_main, Criterion};
use lkk_core::atom::AtomData;
use lkk_core::comm::{build_ghosts, GhostMap};
use lkk_core::domain::Domain;
use lkk_core::lattice::create_velocities;
use lkk_core::neighbor::{NeighborList, NeighborSettings};
use lkk_core::sim::SimulationBuilder;
use lkk_core::units::Units;
use lkk_kokkos::{ScatterView, Space};
use lkk_reaxff::nonbonded::{compute_nonbonded, PairTable};
use lkk_reaxff::qeq::{self, ChargeHistory, QeqMatrix, QeqWork};
use lkk_reaxff::{hns, PairReaxff, ReaxParams};
use std::hint::black_box;

/// The crystal at 300 K, and what a compute needs of it.
struct Frame {
    atoms: AtomData,
    ghosts: GhostMap,
    list: NeighborList,
}

fn crystal_at_300k() -> (AtomData, Domain) {
    let (pos, types, domain) = hns::crystal(5, 5, 5, 7.5);
    let mut atoms = AtomData::from_positions(&pos);
    atoms.mass = vec![12.0, 1.0, 14.0, 16.0];
    for (i, &t) in types.iter().enumerate() {
        atoms.typ.h_view_mut().set([i], t);
    }
    create_velocities(&mut atoms, &Units::metal(), 300.0, 87287);
    (atoms, domain)
}

/// Five consecutive frames of the benchmark's trajectory (NVE, 0.1 fs):
/// four to fill the charge history, the fifth to time the stages on.
fn trajectory() -> Vec<Frame> {
    let (atoms, domain) = crystal_at_300k();
    let mut sim = SimulationBuilder::new(atoms, domain)
        .space(Space::Threads)
        .units(Units::metal())
        .pair(PairReaxff::new(ReaxParams::hns_like()))
        .dt(0.0001)
        .build();
    sim.setup();
    let settings = NeighborSettings::new(ReaxParams::hns_like().r_nonb, 0.3, false);
    (0..5)
        .map(|_| {
            sim.run(1);
            let n = sim.system.atoms.nlocal;
            let records: Vec<_> = (0..n).map(|i| sim.system.atoms.record(i)).collect();
            let mut atoms = AtomData::from_records(&records, &sim.system.atoms.mass);
            atoms.wrap_positions(&domain);
            let ghosts = build_ghosts(&mut atoms, &domain, settings.cutneigh());
            let list = NeighborList::build(&atoms, &domain, &settings, &Space::Threads);
            Frame {
                atoms,
                ghosts,
                list,
            }
        })
        .collect()
}

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("reaxff_stages");
    group.sample_size(15);
    let space = Space::Threads;
    let params = ReaxParams::hns_like();
    let table = PairTable::new(&params);
    let mut matrix = QeqMatrix::default();
    let mut work = QeqWork::default();
    let mut history = ChargeHistory::default();

    let mut frames = trajectory();
    let Frame {
        atoms,
        ghosts,
        list,
    } = frames.pop().expect("five frames");
    let n = atoms.nlocal;
    let chi: Vec<f64> = (0..n)
        .map(|i| params.elements[atoms.typ.h_view().at([i]) as usize].chi)
        .collect();
    let tags = atoms.tag.h_view().as_slice()[..n].to_vec();
    // Four converged solutions behind the frame the stages run on.
    for f in &frames {
        matrix.build(&f.atoms, &f.list, &f.ghosts, &params, &table, &space);
        work.reset(n);
        let sol = qeq::solve(&mut matrix, &chi, &mut work, params.qeq_tol, false, &space);
        assert!(sol.converged);
        history.push(&tags, &work.s, &work.t);
    }

    group.bench_function("matrix_build", |b| {
        b.iter(|| black_box(matrix.build(&atoms, &list, &ghosts, &params, &table, &space)))
    });
    println!(
        "  matrix: {} rows x {} slots, {} non-zeros",
        matrix.n,
        matrix.max_row,
        matrix.total_nnz()
    );
    let mut solve = |warm: bool| {
        work.reset(n);
        if warm {
            history.follow(&tags);
            history.guess(&mut work.s, &mut work.t);
        }
        let sol = qeq::solve(&mut matrix, &chi, &mut work, params.qeq_tol, false, &space);
        assert!(sol.converged);
        sol.iterations
    };
    println!(
        "  CG iterations: cold {}, warm {}",
        solve(false),
        solve(true)
    );
    group.bench_function("solve_cold", |b| b.iter(|| black_box(solve(false))));
    group.bench_function("solve_warm_depth4", |b| b.iter(|| black_box(solve(true))));

    let q = work.q.clone();
    let mut forces = vec![[0.0f64; 3]; n];
    let mut scatter = ScatterView::for_space(n, 3, &space);
    for (name, eflag) in [("nonbonded_ev", true), ("nonbonded_noev", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(compute_nonbonded(
                    &atoms,
                    &list,
                    &ghosts,
                    &q,
                    &table,
                    &mut scatter,
                    &mut forces,
                    eflag,
                    &space,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
