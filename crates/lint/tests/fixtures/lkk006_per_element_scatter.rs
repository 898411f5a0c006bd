// Fixture: LKK006 — per-element ScatterView::add inside a parallel dispatch.
use lkk_kokkos::{ScatterView, Space};

pub fn kernel(space: &Space, sv: &ScatterView, n: usize) {
    sv.add(0, 0, 1.0); // outside a dispatch: the per-element entry point is fine
    space.parallel_for("FixtureScatterAdd", n, |i| {
        sv.add(i, 0, 1.0);
        let forces = sv.access();
        forces.add3(i, [0.5; 3]); // through the handle: fine
        sv.add((i + 1) % n, 1, -1.0);
    });
}
