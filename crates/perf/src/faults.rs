//! `--faults` mode: chaos-test the rank-parallel exchange path.
//!
//! For each seed, the `ranks4` workload runs twice — once fault-free,
//! once with `FaultConfig::recoverable(seed)` installed on every
//! rank's `BrickComm` — and the final per-atom states, reduced
//! energies, and thermo histories are compared *bitwise*. Injected
//! delays, drops, duplicates, reorders, and payload corruptions must
//! all be absorbed by the retry/NACK machinery without perturbing a
//! single bit of the trajectory (the determinism contract of
//! `docs/robustness.md`), and without growing the message pool after
//! warmup (retransmit scratch comes from the same recycle pool).
//!
//! The rendered report carries the per-seed fault counters — the
//! artifact the CI chaos job uploads.

use crate::capture::with_exclusive_run;
use crate::workloads;
use lkk_core::comm::FaultConfig;
use lkk_core::driver::MultiRankRun;
use lkk_trace::json::Value;

/// Outcome of one seed: the faulted run's counters plus any
/// determinism violations (empty = pass).
pub struct SeedOutcome {
    pub seed: u64,
    pub injected: u64,
    pub recovered: u64,
    pub counters: Vec<(&'static str, u64)>,
    pub violations: Vec<String>,
}

fn bits3(v: &[f64; 3]) -> [u64; 3] {
    [v[0].to_bits(), v[1].to_bits(), v[2].to_bits()]
}

/// Bitwise comparison of a faulted run against the fault-free
/// reference. Returns human-readable violation descriptions.
pub fn diff_runs(reference: &MultiRankRun, faulted: &MultiRankRun) -> Vec<String> {
    let mut violations = Vec::new();
    if reference.states.len() != faulted.states.len() {
        violations.push(format!(
            "atom count diverged: {} vs {}",
            reference.states.len(),
            faulted.states.len()
        ));
        return violations;
    }
    for (a, b) in reference.states.iter().zip(&faulted.states) {
        if a.tag != b.tag {
            violations.push(format!("tag order diverged: {} vs {}", a.tag, b.tag));
            continue;
        }
        for (field, ra, rb) in [("x", a.x, b.x), ("v", a.v, b.v), ("f", a.f, b.f)] {
            if bits3(&ra) != bits3(&rb) {
                violations.push(format!("atom {} {field} diverged: {ra:?} vs {rb:?}", a.tag));
            }
        }
    }
    if reference.e_pair.to_bits() != faulted.e_pair.to_bits() {
        violations.push(format!(
            "e_pair diverged: {} vs {}",
            reference.e_pair, faulted.e_pair
        ));
    }
    if reference.e_kinetic.to_bits() != faulted.e_kinetic.to_bits() {
        violations.push(format!(
            "e_kinetic diverged: {} vs {}",
            reference.e_kinetic, faulted.e_kinetic
        ));
    }
    if faulted.comm_grow_after_warmup != 0 {
        violations.push(format!(
            "message pool grew {} times after warmup under faults",
            faulted.comm_grow_after_warmup
        ));
    }
    violations
}

/// Run the chaos sweep over `seeds`. Returns one outcome per seed.
pub fn run_seeds(seeds: &[u64]) -> Vec<SeedOutcome> {
    with_exclusive_run(|| sweep(seeds))
}

fn sweep(seeds: &[u64]) -> Vec<SeedOutcome> {
    let ranks = workloads::ranks4();
    let reference = ranks
        .spec
        .run(ranks.factory)
        .expect("fault-free reference run failed");

    seeds
        .iter()
        .map(|&seed| {
            let mut spec = ranks.spec.clone();
            spec.fault = Some(FaultConfig::recoverable(seed));
            match spec.run(ranks.factory) {
                Ok(faulted) => {
                    let mut violations = diff_runs(&reference, &faulted);
                    if faulted.fault_stats.injected() == 0 {
                        violations.push("seed injected no faults (sweep has no teeth)".into());
                    }
                    SeedOutcome {
                        seed,
                        injected: faulted.fault_stats.injected(),
                        recovered: faulted.fault_stats.recovered(),
                        counters: faulted.fault_stats.entries().to_vec(),
                        violations,
                    }
                }
                Err(failure) => SeedOutcome {
                    seed,
                    injected: 0,
                    recovered: 0,
                    counters: Vec::new(),
                    violations: vec![format!("recoverable seed aborted: {failure}")],
                },
            }
        })
        .collect()
}

/// Render the sweep as the canonical JSON artifact.
pub fn render(outcomes: &[SeedOutcome]) -> Value {
    let mut doc = Value::obj();
    doc.set("schema", 1.0);
    doc.set("workload", "ranks4");
    let mut seeds = Value::obj();
    for o in outcomes {
        let mut entry = Value::obj();
        entry.set("injected", o.injected);
        entry.set("recovered", o.recovered);
        let mut counters = Value::obj();
        for (name, value) in &o.counters {
            counters.set(format!("comm.fault.{name}"), *value);
        }
        entry.set("counters", counters);
        entry.set("bitwise_identical", o.violations.is_empty());
        if !o.violations.is_empty() {
            let violations = o.violations.iter().map(|v| Value::from(v.as_str()));
            entry.set("violations", Value::Arr(violations.collect()));
        }
        seeds.set(format!("seed{}", o.seed), entry);
    }
    doc.set("seeds", seeds);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fixed seed through the full sweep machinery: faults must be
    /// injected, recovered, and invisible in the final state.
    #[test]
    fn single_seed_sweep_is_bitwise_clean() {
        let outcomes = run_seeds(&[0xC0FFEE]);
        assert_eq!(outcomes.len(), 1);
        let o = &outcomes[0];
        assert!(
            o.violations.is_empty(),
            "seed {} violations: {:?}",
            o.seed,
            o.violations
        );
        assert!(o.injected > 0, "no faults injected");
        let doc = render(&outcomes);
        let text = doc.to_pretty();
        assert!(text.contains("\"bitwise_identical\": true"));
        assert!(text.contains("\"comm.fault.drops\""));
    }
}
