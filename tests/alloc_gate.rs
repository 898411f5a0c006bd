//! The zero-allocation gate on kernels: after one warm-up step, no
//! dispatch closure of any pair style touches the allocator, on any
//! space, at sizes where every launch over atoms forks. The allocator
//! itself counts ([`CountingAlloc`] is this binary's global allocator),
//! so an allocation in a helper a kernel calls counts as one in the
//! kernel. The dispatch depth it reads exists under `debug_assertions`
//! only, so the gate runs in the dev profile (`cargo test --test
//! alloc_gate`) and compiles to nothing in release.

#![cfg(debug_assertions)]

mod common;

use lammps_kk::kokkos::alloc_gate::{self, CountingAlloc};
use lammps_kk::prelude::*;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Steps after the warm-up that must not allocate inside a dispatch,
/// each with a neighbor rebuild.
const STEPS: u64 = 3;

#[test]
fn no_kernel_allocates_after_one_warm_up_step() {
    // The gate sees what it must: one `vec!` per item of a forked launch.
    let (n, before) = (4096, alloc_gate::in_dispatch());
    Space::Threads.parallel_for("Allocating", n, |i| {
        std::hint::black_box(vec![i; 8]);
    });
    assert_eq!(alloc_gate::in_dispatch() - before, n as u64);

    let mut allocating = Vec::new();
    for case in common::every_style() {
        let m = (1..)
            .find(|m| case.positions.len() * m * m * m >= 2048)
            .unwrap();
        let case = case.tiled(m);
        for space in [
            Space::Serial,
            Space::Threads,
            Space::device(GpuArch::h100()),
        ] {
            let pair = (case.make_pair)(&space);
            let settings = NeighborSettings::new(pair.cutoff(), 0.3, pair.wants_half_list());
            let mut system = case.system(&space, &settings);
            // One mass per type (the table's systems carry one mass).
            let ntypes = case.types.iter().max().map_or(1, |&t| t as usize + 1);
            let m = system.atoms.mass[0];
            system.atoms.mass.resize(ntypes, m);
            let mut sim = Simulation::new(system, pair);
            // No skin: every step that moves an atom rebuilds the list.
            // A short step keeps the unit-mass crystals crystals.
            sim.settings.skin = 0.0;
            sim.dt = 5e-4;
            assert!(sim.system.atoms.nlocal >= 2048, "{}", case.name);
            sim.run(1);
            let (before, rebuilds) = (alloc_gate::in_dispatch(), sim.rebuild_count);
            sim.run(STEPS);
            let made = alloc_gate::in_dispatch() - before;
            assert_eq!(sim.rebuild_count - rebuilds, STEPS, "{}", case.name);
            if made > 0 {
                let on = match space {
                    Space::Serial => "Serial",
                    Space::Threads => "Threads",
                    Space::Device(_) => "device",
                };
                allocating.push(format!("{} on {on}: {made}", case.name));
            }
        }
    }
    assert!(
        allocating.is_empty(),
        "allocations inside dispatches: {allocating:#?}"
    );
}
