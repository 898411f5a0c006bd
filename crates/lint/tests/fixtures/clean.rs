// Fixture: a file that follows every invariant — must produce zero
// findings (guards against matcher over-reach).
use lkk_kokkos::{profile, ScatterView, Space};
use std::collections::BTreeMap;

pub fn kernel(space: &Space, sv: &ScatterView, n: usize) -> f64 {
    let e = space.parallel_reduce(
        "CleanKernel",
        n,
        0.0f64,
        |i| {
            let mut w = [0.0f64; 3];
            w[0] += 1.0; // closure-local accumulator: fine
            let forces = sv.access(); // one handle per work item: fine
            forces.add(i, 0, w[0]); // deconflicted scatter: fine
            w[0]
        },
        |a, b| a + b,
    );
    if profile::has_subscribers() {
        profile::note_instant("clean.energy", e);
    }
    e
}

pub fn dump(m: &BTreeMap<String, f64>) -> String {
    // Ordered container: iteration is deterministic.
    let mut out = String::new();
    for (k, v) in m {
        out.push_str(&format!("{k}={v};"));
    }
    out
}

pub fn commentary() {
    // Mentions of Instant::now() or HashMap in comments and strings
    // must never fire: "SystemTime::now() is banned here".
    let _doc = "call thread_rng() nowhere";
}
