//! Per-stage wall-clock microbenchmarks of the fissioned SNAP pipeline
//! (Criterion) at 2J = 8: ComputeUi, ComputeYi, and the mapped
//! ComputeDeidrj, through the same entry points `pair_style snap`
//! calls. `stage_ui`, `stage_deidrj` and `stage_deidrj_u` are per atom
//! (26 neighbors); `stage_yi` is per block of `YI_BLOCK` (8) atoms, from
//! the block kernel's instantiation this CPU runs (AVX2 where detected),
//! and `stage_yi_baseline_isa` is the same block from the baseline copy
//! (`isa::set_force_baseline`).
//! `stage_deidrj_u` is the forward half of Deidrj alone (map derivatives
//! and the `u` recursion), so `stage_deidrj − stage_deidrj_u` is the
//! reverse sweep plus the contraction.
//!
//! This is the host-side companion of the `snap.ui/yi/deidrj` FLOP/byte
//! instants the pair style emits per step: the same three stages, timed
//! in isolation on one representative atom environment.

use criterion::{criterion_group, criterion_main, Criterion};
use lkk_kokkos::isa;
use lkk_snap::wigner::compute_u;
use lkk_snap::{SnapContext, YI_BLOCK};
use std::hint::black_box;

/// A representative 26-neighbor bcc-like environment (same cloud the
/// `kernels_cpu` suite uses, so numbers are comparable across suites).
fn cloud() -> Vec<[f64; 3]> {
    (0..26)
        .map(|k| {
            let t = k as f64;
            [
                2.6 * (t * 0.7).sin() + 0.8,
                2.6 * (t * 1.3).cos(),
                2.2 * ((t * 0.9).sin() - 0.3),
            ]
        })
        .collect()
}

fn bench_stages(c: &mut Criterion) {
    let mut group = c.benchmark_group("snap_stages");
    group.sample_size(15);
    let ctx = SnapContext::new(8, Default::default(), SnapContext::synthetic_beta(8, 42));
    let u_len = ctx.idx.u_len;
    let neigh = cloud();
    let wts = vec![1.0f64; neigh.len()];
    let mut work = ctx.alloc_work();
    let mut geom = vec![Default::default(); neigh.len()];
    let mut utot_r = vec![0.0f64; YI_BLOCK * u_len];
    let mut utot_i = vec![0.0f64; YI_BLOCK * u_len];
    let mut y_r = vec![0.0f64; YI_BLOCK * u_len];
    let mut y_i = vec![0.0f64; YI_BLOCK * u_len];

    // Stage 1 — ComputeUi: accumulate U and keep the hypersphere maps.
    let mut ui = |lane: usize| {
        ctx.compute_ui_into(
            black_box(&neigh),
            Some(&wts),
            1,
            Some(&mut geom),
            &mut utot_r[lane * u_len..(lane + 1) * u_len],
            &mut utot_i[lane * u_len..(lane + 1) * u_len],
            &mut work,
        );
        black_box(utot_r[10])
    };
    group.bench_function("stage_ui", |b| b.iter(|| ui(0)));
    (1..YI_BLOCK).for_each(|lane| {
        ui(lane);
    });

    // Stage 2 — ComputeYi: one table pass builds the adjoint of a whole
    // block (energy contraction off, as on all but thermo steps), from
    // the instantiation this CPU runs and from the baseline one.
    for (name, baseline) in [("stage_yi", false), ("stage_yi_baseline_isa", true)] {
        isa::set_force_baseline(baseline);
        group.bench_function(name, |b| {
            b.iter(|| {
                ctx.compute_yi_block(
                    black_box(&utot_r),
                    &utot_i,
                    &mut y_r,
                    &mut y_i,
                    false,
                    &mut work,
                );
                black_box(y_r[5])
            })
        });
    }
    isa::set_force_baseline(false);

    // Stage 3 — ComputeDeidrj: per neighbor, `u` forwards from its
    // stage-1 map, one reverse sweep seeded with Y, the contraction.
    group.bench_function("stage_deidrj", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (k, &d) in neigh.iter().enumerate() {
                acc += ctx.compute_deidrj_mapped(
                    black_box(d),
                    wts[k],
                    &geom[k],
                    &y_r[..u_len],
                    &y_i[..u_len],
                    &mut work,
                )[0];
            }
            black_box(acc)
        })
    });

    // The forward half of stage 3 on its own.
    let (mut u_r, mut u_i) = (vec![0.0f64; u_len], vec![0.0f64; u_len]);
    group.bench_function("stage_deidrj_u", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (k, &d) in neigh.iter().enumerate() {
                let ckd = ctx.hyper.derivatives_from(black_box(d), &geom[k]);
                compute_u(&ctx.idx, &ctx.rootpq, &ckd.ck, &mut u_r, &mut u_i);
                acc += ckd.da_r[0] * u_r[10];
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stages);
criterion_main!(benches);
