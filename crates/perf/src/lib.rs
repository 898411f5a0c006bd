//! `lkk-perf` — the deterministic perf-regression harness.
//!
//! The `perf-smoke` binary runs six small fixed-seed workloads (LJ,
//! EAM, SNAP, ReaxFF on a simulated device; `ranks4` and `skewed8` on
//! brick-decomposed rank threads) through the full timestep loop, once
//! each, under the `lkk-kokkos` profiling subscribers, and renders what
//! they recorded as one canonical JSON document. Because every number
//! is a counter (or a pure function of counters, like predicted device
//! time or logical-tick attribution), the document is bit-stable across
//! machines — comparing it byte for byte against the committed
//! `results/baseline.json` catches cost-model, kernel-shape, exchange
//! and instrumentation regressions without any of the noise wall-clock
//! gating suffers from. Wall-clock measurement is `benchmark/run.sh`.
//!
//! Layout:
//! - [`workloads`] — the six fixed-seed smoke systems.
//! - [`capture`] — run them, each under a fresh accumulator and a fresh
//!   deterministic `lkk-trace` collector; render the run document
//!   (`summary` / `counters` / `metrics` / `critical_path` per
//!   workload), the Perfetto timeline, and the attribution table.
//! - [`diff`] — name the leaves on which two documents differ, as
//!   section + key.
//!
//! The JSON value, writer and parser are `lkk_trace::json`.

pub mod capture;
pub mod diff;
pub mod workloads;

pub use diff::{compare, Drift};

#[cfg(test)]
mod tests {
    use super::*;
    use capture::document;
    use lkk_trace::json::{self, Value};

    /// End-to-end baseline round trip: render a document, parse it
    /// back, confirm zero drift; then perturb one counter and confirm
    /// the diff pinpoints exactly that section and key.
    #[test]
    fn check_round_trip_and_perturbation_detection() {
        let doc = document(&capture::capture(vec![workloads::lj()], Vec::new()));
        let text = doc.to_pretty();
        let parsed = json::parse(&text).unwrap();

        // Parse must be lossless: re-rendering gives identical bytes
        // and the structural diff is empty.
        assert_eq!(parsed.to_pretty(), text);
        assert!(compare(&doc, &parsed).is_empty());

        // Deliberate perturbation: bump one flop counter by 1 ppm.
        let mut perturbed = parsed.clone();
        let kernels = ["workloads", "lj", "counters", "kernels"]
            .iter()
            .fold(&mut perturbed, |v, key| v.get_mut(key).unwrap());
        let Value::Obj(entries) = kernels else {
            panic!("kernels not an object")
        };
        // Pick a kernel that actually does flops (some, like index
        // fills, legitimately report 0 and 0*(1+eps) is still 0).
        let (key, entry) = entries
            .iter_mut()
            .find(|(_, e)| e.get("flops").and_then(Value::as_f64).unwrap_or(0.0) > 0.0)
            .expect("no kernel with nonzero flops");
        let key = key.clone();
        let Some(Value::Num(x)) = entry.get_mut("flops") else {
            panic!("flops not numeric")
        };
        *x *= 1.0 + 1e-6;

        let drifts = compare(&doc, &perturbed);
        assert_eq!(drifts.len(), 1, "expected exactly one drift: {drifts:?}");
        match &drifts[0] {
            Drift::Changed { path, .. } => {
                assert_eq!(path, &format!("workloads.lj.counters: kernels.{key}.flops"));
            }
            other => panic!("unexpected drift kind: {other:?}"),
        }
    }
}
