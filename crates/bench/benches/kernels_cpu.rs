//! Real wall-clock CPU microbenchmarks (Criterion): the host-side
//! counterparts of the paper's kernel comparisons.
//!
//! * LJ half list (+ScatterView duplication) vs full list — §4.1's CPU
//!   claim is that half wins on hosts.
//! * ScatterView modes under a threaded scatter workload — §3.2.
//! * SNAP ComputeUi neighbor batching and Deidrj on the host — §4.3.3
//!   notes the CPU balance differs from the GPU. (§4.3.4's
//!   fused-vs-unfused Deidrj is a modelled-device comparison, `table2`:
//!   the host kernel's one reverse sweep has no direction loop to fuse;
//!   Yi per block of atoms is `snap_stages`' `stage_yi`.)
//! * QEq fused dual SpMV vs two separate passes — §4.2.3's matrix-load
//!   reuse is a real, measurable effect on CPUs too.
//! * The two-body pair kernel at 32 000 disordered atoms, with and
//!   without the energy/virial tally (`eflag`), on the three paths the
//!   benchmark's LJ workloads take (half list on `Serial` and `Threads`,
//!   full list on the device's strided views).
//! * Neighbor-list construction, half vs full: the in-place rebuild a run
//!   pays per reneighboring (on `Serial` also with the fill kernel's
//!   baseline instantiation forced, `*_baseline_isa`: what the AVX2 copy
//!   behind `lkk_kokkos::isa` buys), and the working-set sample the
//!   device cost model takes of the list.
//!
//! Every group here is cited by `EXPERIMENTS.md` or `docs/performance.md`;
//! `results/kernels_cpu.txt` is this bench's output.
//! * Dispatch alone: an empty `parallel_for` and a trivial
//!   `parallel_reduce_sum` on `Serial` and `Threads` from 2^8 to 2^16
//!   items, back to back (workers still polling) and after a 2 ms idle
//!   gap (workers parked) — the fork-join cost and the size from which
//!   forking pays (`docs/performance.md`, "Dispatch: a persistent pool").

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lkk_core::atom::AtomData;
use lkk_core::comm::build_ghosts;
use lkk_core::lattice::{Lattice, LatticeKind};
use lkk_core::neighbor::{NeighborList, NeighborSettings};
use lkk_core::pair::lj::LjCut;
use lkk_core::pair::{PairKokkos, PairKokkosOptions, PairStyle};
use lkk_core::sim::System;
use lkk_kokkos::{isa, parts, ScatterMode, ScatterView, Space};
use lkk_reaxff::nonbonded::PairTable;
use lkk_reaxff::qeq::QeqMatrix;
use lkk_reaxff::{hns, ReaxParams};
use lkk_snap::{SnapContext, SnapKernelConfig};
use std::hint::black_box;

/// An fcc LJ system with ghosts and a neighbor list for `space`, every
/// site moved by up to ±`jitter` per axis (fixed sequence). `0.1` gives
/// the melt's disorder without running it, so the cutoff test is not
/// the perfectly predictable one of a crystal; `0.0` is the crystal.
fn lj_setup(cells: usize, space: &Space, half: bool, jitter: f64) -> (System, NeighborList) {
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let mut positions = lat.positions(cells, cells, cells);
    let mut s = 987654321u64;
    for x in positions.iter_mut().flatten() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x += 2.0 * jitter * ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
    }
    let domain = lat.domain(cells, cells, cells);
    let mut atoms = AtomData::from_positions(&positions);
    atoms.wrap_positions(&domain);
    let mut system = System::new(atoms, domain, space.clone());
    let settings = NeighborSettings::new(2.5, 0.3, half);
    system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
    let list = NeighborList::build(&system.atoms, &system.domain, &settings, space);
    (system, list)
}

fn bench_lj(c: &mut Criterion) {
    let mut group = c.benchmark_group("lj_force_32k");
    group.sample_size(15);
    for (name, half) in [("full", false), ("half_scatterview", true)] {
        let (mut system, list) = lj_setup(20, &Space::Threads, half, 0.0);
        let space = system.space.clone();
        let mut pair = PairKokkos::with_options(
            LjCut::single_type(1.0, 1.0, 2.5),
            &space,
            PairKokkosOptions {
                force_half: Some(half),
                ..Default::default()
            },
        );
        group.bench_function(name, |b| {
            b.iter(|| black_box(pair.compute(&mut system, &list, true)))
        });
    }
    group.finish();
}

fn bench_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair");
    group.sample_size(15);
    for (name, space) in [
        ("lj_half_serial", Space::Serial),
        ("lj_half_threads", Space::Threads),
        ("lj_full_device", Space::device(lkk_gpusim::GpuArch::h100())),
    ] {
        let mut pair = PairKokkos::new(LjCut::single_type(1.0, 1.0, 2.5), &space);
        let (mut system, list) = lj_setup(20, &space, pair.wants_half_list(), 0.1);
        for (suffix, eflag) in [("ev", true), ("noev", false)] {
            group.bench_function(format!("{name}_{suffix}"), |b| {
                b.iter(|| black_box(pair.compute(&mut system, &list, eflag)))
            });
        }
    }
    group.finish();
}

fn bench_scatter(c: &mut Criterion) {
    let mut group = c.benchmark_group("scatter_modes");
    group.sample_size(20);
    let n = 100_000;
    for (name, mode) in [
        ("atomic", ScatterMode::Atomic),
        ("duplicated", ScatterMode::Duplicated),
    ] {
        let mut sv = ScatterView::new(n, 3, mode);
        group.bench_function(name, |b| {
            b.iter(|| {
                let out = parts::scatter(&mut sv);
                Space::Threads.parallel_for_parts("scatter", 8 * n, out, |k, a| {
                    a.add((k * 37) % n, k % 3, 1.0);
                });
                let mut out = vec![0.0; n * 3];
                sv.contribute_into(&mut out);
                black_box(out[0])
            })
        });
    }
    group.finish();
}

fn bench_snap(c: &mut Criterion) {
    let mut group = c.benchmark_group("snap_kernels_cpu");
    group.sample_size(15);
    let ctx = SnapContext::new(8, Default::default(), SnapContext::synthetic_beta(8, 42));
    let mut scratch = ctx.alloc_scratch();
    // A representative 26-neighbor bcc environment.
    let neigh: Vec<[f64; 3]> = (0..26)
        .map(|k| {
            let t = k as f64;
            [
                2.6 * (t * 0.7).sin() + 0.8,
                2.6 * (t * 1.3).cos(),
                2.2 * ((t * 0.9).sin() - 0.3),
            ]
        })
        .collect();
    for batch in [1usize, 4] {
        group.bench_function(format!("compute_ui_batch{batch}"), |b| {
            b.iter(|| {
                ctx.compute_ui(black_box(&neigh), &mut scratch, batch);
                black_box(scratch.utot_r[10])
            })
        });
    }
    ctx.compute_ui(&neigh, &mut scratch, 1);
    ctx.compute_yi(&mut scratch);
    group.bench_function("deidrj", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &d in &neigh {
                acc += ctx.compute_deidrj(d, &mut scratch)[0];
            }
            black_box(acc)
        })
    });
    let _ = SnapKernelConfig::default();
    group.finish();
}

fn bench_qeq_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("qeq_spmv");
    group.sample_size(10);
    let params = ReaxParams::hns_like();
    // Large enough that the matrix (~30 MB) spills the last-level
    // cache — the fused dual SpMV's matrix-reload saving (§4.2.3) only
    // exists when the matrix actually streams from DRAM.
    let (pos, types, domain) = hns::crystal(12, 12, 12, 7.5);
    let mut atoms = AtomData::from_positions(&pos);
    atoms.mass = vec![12.0, 1.0, 14.0, 16.0];
    for (i, &t) in types.iter().enumerate() {
        atoms.typ.h_view_mut().set([i], t);
    }
    atoms.wrap_positions(&domain);
    let settings = NeighborSettings::new(params.r_nonb, 0.3, false);
    let ghosts = build_ghosts(&mut atoms, &domain, settings.cutneigh());
    let list = NeighborList::build(&atoms, &domain, &settings, &Space::Threads);
    let mut m = QeqMatrix::default();
    let table = PairTable::new(&params);
    m.build(&atoms, &list, &ghosts, &params, &table, &Space::Threads);
    let n = m.n;
    let x1: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let x2: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let mut y1 = vec![0.0; n];
    let mut y2 = vec![0.0; n];
    group.bench_function("fused_dual", |b| {
        b.iter(|| {
            m.spmv_fused(&x1, &x2, &mut y1, &mut y2, &Space::Threads);
            black_box(y1[0] + y2[0])
        })
    });
    group.bench_function("two_separate", |b| {
        b.iter(|| {
            // Two passes: the matrix is loaded twice.
            m.spmv_fused(&x1, &x1, &mut y1, &mut y2, &Space::Threads);
            let a = y1[0];
            m.spmv_fused(&x2, &x2, &mut y1, &mut y2, &Space::Threads);
            black_box(a + y1[0])
        })
    });
    group.finish();
}

fn bench_neighbor(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighbor_build_32k");
    group.sample_size(15);
    for (name, half) in [("half", true), ("full", false)] {
        let (system, list) = lj_setup(20, &Space::Threads, half, 0.0);
        let settings = NeighborSettings::new(2.5, 0.3, half);
        // What a run pays per reneighboring: the same list refilled in
        // place (bins, fill with its overflow retry; no allocation).
        for (space_name, space) in [("serial", Space::Serial), ("threads", Space::Threads)] {
            let mut persistent =
                NeighborList::build(&system.atoms, &system.domain, &settings, &space);
            let mut rebuild =
                || persistent.rebuild(&system.atoms, &system.domain, &settings, &space);
            group.bench_function(format!("rebuild_{name}_{space_name}"), |b| {
                b.iter(&mut rebuild)
            });
            if space_name == "serial" {
                isa::set_force_baseline(true);
                group.bench_function(format!("rebuild_{name}_serial_baseline_isa"), |b| {
                    b.iter(&mut rebuild)
                });
                isa::set_force_baseline(false);
            }
        }
        // The device cost model's working-set sample of `lj_setup`'s list.
        group.bench_function(format!("working_set_2048_{name}"), |b| {
            b.iter(|| black_box(list.working_set_bytes(2048)))
        });
    }
    group.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(20);
    // Twice the pool's spin window: the workers are parked again.
    let idle = || std::thread::sleep(std::time::Duration::from_millis(2));
    for (space_name, space) in [("serial", Space::Serial), ("threads", Space::Threads)] {
        for n in (8..=16).map(|k| 1usize << k) {
            let empty_for = || {
                space.parallel_for("bench/empty", n, |i| {
                    black_box(i);
                })
            };
            let sum = || space.parallel_reduce_sum("bench/sum", n, |i| i as f64);
            group.bench_function(format!("for/{space_name}/{n}"), |b| b.iter(empty_for));
            group.bench_function(format!("reduce/{space_name}/{n}"), |b| b.iter(sum));
            group.bench_function(format!("for/{space_name}/{n}/idle_2ms"), |b| {
                b.iter_batched(idle, |()| empty_for(), BatchSize::PerIteration)
            });
            group.bench_function(format!("reduce/{space_name}/{n}/idle_2ms"), |b| {
                b.iter_batched(idle, |()| sum(), BatchSize::PerIteration)
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dispatch,
    bench_lj,
    bench_pair,
    bench_scatter,
    bench_snap,
    bench_qeq_spmv,
    bench_neighbor
);
criterion_main!(benches);
