//! Run workloads under a [`StatsAccumulator`] subscriber and render the
//! deterministic counter report.
//!
//! Everything emitted here is a *counter* (event counts, bytes, flops,
//! launches, region entries) or a pure function of counters (predicted
//! device time per architecture, roofline class). Wall-clock never
//! enters the report, and execution is forced sequential for the
//! duration, so two runs of the same binary produce byte-identical
//! output regardless of machine load or core count.

use crate::json::Value;
use crate::workloads::{RankWorkload, Workload};
use lkk_gpusim::{AccumulatedProfile, GpuArch, KernelStats, RooflineClass, StatsAccumulator};
use lkk_kokkos::{exec, profile};
use std::sync::{Arc, Mutex};

/// Report format version; bump when the schema changes shape (a bumped
/// schema fails the baseline check loudly instead of half-matching).
pub const SCHEMA_VERSION: f64 = 1.0;

/// Short keys for the per-architecture predicted-time map, in Table-1
/// row order (must stay in sync with `GpuArch::by_name`).
const ARCH_KEYS: [&str; 7] = ["v100", "a100", "h100", "gh200", "mi250x", "mi300a", "pvc"];

/// Serializes whole-report runs: the profiling subscriber registry and
/// the force-sequential flag are process-global, so concurrent runs
/// (including `--time` mode, see [`crate::timing`]) would cross-feed
/// each other's accumulators.
pub(crate) static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` under the global run exclusion with the executor forced
/// sequential — the same discipline every capture/report entry point
/// here uses. For integration tests that install their own profile
/// subscriber (e.g. the fault-abort trace audit in
/// `tests/trace_schema.rs`) and must not cross-feed a concurrent
/// capture.
pub fn with_exclusive_run<T>(f: impl FnOnce() -> T) -> T {
    let _exclusive = RUN_LOCK.lock().unwrap();
    let was_sequential = exec::force_sequential();
    exec::set_force_sequential(true);
    let out = f();
    exec::set_force_sequential(was_sequential);
    out
}

/// Run every workload and build the full report document.
pub fn run_all(workloads: Vec<Workload>) -> Value {
    let _exclusive = RUN_LOCK.lock().unwrap();
    let was_sequential = exec::force_sequential();
    exec::set_force_sequential(true);

    let mut doc = Value::obj();
    doc.set("schema", Value::Num(SCHEMA_VERSION));
    doc.set("device", Value::Str("h100".into()));
    let mut wl_obj = Value::obj();
    for workload in workloads {
        let name = workload.name;
        wl_obj.set(name, run_one(workload));
    }
    for ranks in crate::workloads::all_ranks() {
        let name = ranks.name;
        wl_obj.set(name, run_ranks(ranks));
    }
    doc.set("workloads", wl_obj);

    exec::set_force_sequential(was_sequential);
    doc
}

/// Run one workload under a fresh accumulator and render its section.
fn run_one(workload: Workload) -> Value {
    let Workload {
        name: _,
        mut sim,
        steps,
    } = workload;
    let acc = Arc::new(StatsAccumulator::new());
    let id = profile::register_subscriber(acc.clone());
    sim.run(steps);
    let e_total = sim.total_energy();
    profile::unregister_subscriber(id);
    let snap = acc.snapshot();

    let mut out = Value::obj();
    out.set("natoms", Value::Num(sim.system.atoms.nlocal as f64));
    out.set("steps", Value::Num(steps as f64));
    out.set("rebuilds", Value::Num(sim.rebuild_count as f64));
    out.set("e_total", Value::Num(e_total));

    // Neighbor-list shape (the list left in place after the run).
    {
        let list = sim.neighbor_list();
        let mut neigh = Value::obj();
        neigh.set("total_pairs", Value::Num(list.total_pairs as f64));
        neigh.set("avg_neighbors", Value::Num(list.avg_neighbors()));
        out.set("neighbor", neigh);
    }

    render_snapshot(&mut out, &snap);
    out
}

/// Run the rank-parallel workload and render its section: the same
/// kernel/launch/region/transfer counters as the single-rank sections
/// (kernel keys carry the per-rank region prefix, e.g.
/// `PairCompute@rank0/step/pair`), plus the exchange counters of the
/// brick comm layer. Every field is deterministic — the exchanges are
/// lockstep, reductions combine in rank order, and pool reclaim waits
/// for exact counts — so the section diffs at tolerance 0 like the
/// rest of the report.
fn run_ranks(workload: RankWorkload) -> Value {
    let acc = Arc::new(StatsAccumulator::new());
    let id = profile::register_subscriber(acc.clone());
    let run = workload
        .spec
        .run(workload.factory)
        .expect("fault-free rank-parallel run failed");
    profile::unregister_subscriber(id);
    let snap = acc.snapshot();

    let mut out = Value::obj();
    out.set("natoms", Value::Num(run.natoms as f64));
    out.set("nranks", Value::Num(run.nranks as f64));
    out.set("steps", Value::Num(run.steps as f64));
    out.set(
        "warmup_steps",
        Value::Num(workload.spec.warmup_steps as f64),
    );
    out.set(
        "rebuilds",
        Value::Num(run.rebuild_counts.iter().sum::<u64>() as f64),
    );
    out.set("e_total", Value::Num(run.e_pair + run.e_kinetic));
    // Peak owned-atoms over the run divided by the perfect share — a
    // pure function of the (deterministic) migration history, so it
    // diffs at tolerance 0 like every counter.
    out.set("atom_imbalance", Value::Num(run.atom_imbalance()));

    {
        let mut neigh = Value::obj();
        neigh.set("total_pairs", Value::Num(run.total_pairs as f64));
        out.set("neighbor", neigh);
    }

    // Exchange counters summed over ranks, plus the steady-state pool
    // invariant: `pool_grow_after_warmup` is committed as 0 and checked
    // at tolerance 0.
    {
        let s = run.comm_stats;
        let mut comm = Value::obj();
        comm.set("forward_bytes", Value::Num(s.forward_bytes as f64));
        comm.set("forward_msgs", Value::Num(s.forward_msgs as f64));
        comm.set("reverse_bytes", Value::Num(s.reverse_bytes as f64));
        comm.set("reverse_msgs", Value::Num(s.reverse_msgs as f64));
        comm.set("scalar_bytes", Value::Num(s.scalar_bytes as f64));
        comm.set("scalar_msgs", Value::Num(s.scalar_msgs as f64));
        comm.set("border_bytes", Value::Num(s.border_bytes as f64));
        comm.set("border_msgs", Value::Num(s.border_msgs as f64));
        comm.set("migrate_bytes", Value::Num(s.migrate_bytes as f64));
        comm.set("migrate_msgs", Value::Num(s.migrate_msgs as f64));
        comm.set("balance_bytes", Value::Num(s.balance_bytes as f64));
        comm.set("balance_msgs", Value::Num(s.balance_msgs as f64));
        comm.set("rebalances", Value::Num(s.rebalances as f64));
        comm.set("allreduce_count", Value::Num(s.allreduce_count as f64));
        comm.set("pool_grow", Value::Num(run.comm_grow as f64));
        comm.set(
            "pool_grow_after_warmup",
            Value::Num(run.comm_grow_after_warmup as f64),
        );
        out.set("comm", comm);
    }

    render_snapshot(&mut out, &snap);
    out
}

/// Render the accumulator counters common to every section.
fn render_snapshot(out: &mut Value, snap: &AccumulatedProfile) {
    // Per-kernel counters + model predictions, keyed "name@region"
    // (already sorted by (region, name) by the accumulator; re-key and
    // sort by the rendered key for a stable document).
    let mut kernel_entries: Vec<(String, Value)> = snap
        .kernels
        .iter()
        .map(|k| (kernel_key(k), kernel_value(k)))
        .collect();
    kernel_entries.sort_by(|a, b| a.0.cmp(&b.0));
    out.set("kernels", Value::Obj(kernel_entries));

    // Dispatch counts per kernel label (includes host-side and
    // stats-free launches the kernel table does not cover).
    let mut launches = Value::obj();
    for (label, count) in &snap.launches {
        launches.set(label.clone(), Value::Num(*count as f64));
    }
    out.set("launches", launches);

    // Region entry counts ("step", "step/pair", ...).
    let mut regions = Value::obj();
    for (path, count) in &snap.regions {
        regions.set(path.clone(), Value::Num(*count as f64));
    }
    out.set("regions", regions);

    // Instant/counter samples (`name@region`), rendered as
    // {count, sum}. Includes the SNAP contraction-table shape counters
    // (`snap.table.*`), which the baseline pins at zero tolerance —
    // `snap.table.builds` drifting above one launch-count's worth would
    // betray a mid-run table rebuild.
    let mut counters = Value::obj();
    for (key, (count, sum)) in &snap.counters {
        let mut c = Value::obj();
        c.set("count", Value::Num(*count as f64));
        c.set("sum", Value::Num(*sum));
        counters.set(key.clone(), c);
    }
    out.set("counters", counters);

    // Host<->device traffic observed by the subscriber during the run.
    let mut transfers = Value::obj();
    transfers.set("h2d_bytes", Value::Num(snap.h2d.bytes as f64));
    transfers.set("h2d_count", Value::Num(snap.h2d.count as f64));
    transfers.set("d2h_bytes", Value::Num(snap.d2h.bytes as f64));
    transfers.set("d2h_count", Value::Num(snap.d2h.count as f64));
    out.set("transfers", transfers);

    // Whole-workload predicted time per architecture (sum of kernels).
    let mut totals = Value::obj();
    for key in ARCH_KEYS {
        let arch = GpuArch::by_name(key).expect("ARCH_KEYS out of sync with by_name");
        // fold, not sum: f64's Sum identity is -0.0, which would render
        // the kernel-free rank sections as "-0".
        let total: f64 = snap
            .kernels
            .iter()
            .fold(0.0, |acc, k| acc + k.time_on_default(&arch).seconds);
        totals.set(key, Value::Num(total * 1e6));
    }
    out.set("predicted_us_total", totals);
}

fn kernel_key(k: &KernelStats) -> String {
    if k.region.is_empty() {
        k.name.clone()
    } else {
        format!("{}@{}", k.name, k.region)
    }
}

fn kernel_value(k: &KernelStats) -> Value {
    let mut v = Value::obj();
    v.set("launches", Value::Num(k.launches));
    v.set("work_items", Value::Num(k.work_items));
    v.set("flops", Value::Num(k.flops));
    v.set("dram_bytes", Value::Num(k.dram_bytes));
    v.set("reused_bytes", Value::Num(k.reused_bytes));
    v.set("l1_only_bytes", Value::Num(k.l1_only_bytes));
    v.set("atomic_f64_ops", Value::Num(k.atomic_f64_ops));
    v.set(
        "scratch_bytes_per_team",
        Value::Num(k.scratch_bytes_per_team),
    );

    // Model-derived (pure functions of the counters + arch tables).
    let h100 = GpuArch::h100();
    let roofline = k.roofline_on(&h100);
    v.set(
        "roofline_h100",
        Value::Str(
            match roofline.class {
                RooflineClass::MemoryBound => "memory",
                RooflineClass::ComputeBound => "compute",
                RooflineClass::LatencyBound => "latency",
            }
            .into(),
        ),
    );
    let mut predicted = Value::obj();
    for key in ARCH_KEYS {
        let arch = GpuArch::by_name(key).expect("ARCH_KEYS out of sync with by_name");
        predicted.set(key, Value::Num(k.time_on_default(&arch).seconds * 1e6));
    }
    v.set("predicted_us", predicted);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// The full determinism + coverage test: two complete runs of every
    /// workload must render byte-identical JSON, and each family must
    /// report its signature kernels.
    #[test]
    fn report_is_bit_stable_and_covers_all_families() {
        let a = run_all(workloads::all()).to_pretty();
        let b = run_all(workloads::all()).to_pretty();
        assert_eq!(a, b, "two identical runs produced different reports");

        for needle in [
            "\"lj\"",
            "\"eam\"",
            "\"snap\"",
            "\"reaxff\"",
            "\"ranks4\"",
            "\"skewed8\"",
            "\"balance_msgs\"",
            "PairCompute",
            "EAMForce",
            "ComputeUi@",
            "ComputeYi@",
            "QEqSpmvFused@",
            "BondOrderBuild@",
            "step/pair",
            "predicted_us",
            "roofline_h100",
            "snap.table.z_rows@",
            "snap.table.builds@",
            "snap.ui.flops@",
        ] {
            assert!(a.contains(needle), "report missing {needle}:\n{a}");
        }

        // Counters must be parseable and structurally diffable.
        let doc = crate::json::parse(&a).unwrap();
        assert!(crate::diff::compare(&doc, &doc, 0.0).is_empty());
        let lj = doc.get("workloads").unwrap().get("lj").unwrap();
        assert_eq!(lj.get("natoms").unwrap().as_f64(), Some(256.0));
        assert!(
            lj.get("transfers")
                .unwrap()
                .get("h2d_bytes")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );

        // The rank-parallel sections carry the exchange counters and
        // the steady-state pool invariant. The static decomposition
        // must stay balance-silent so its bytes don't drift.
        let ranks = doc.get("workloads").unwrap().get("ranks4").unwrap();
        assert_eq!(ranks.get("nranks").unwrap().as_f64(), Some(4.0));
        let comm = ranks.get("comm").unwrap();
        assert!(comm.get("forward_msgs").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(comm.get("balance_msgs").unwrap().as_f64(), Some(0.0));
        assert_eq!(comm.get("rebalances").unwrap().as_f64(), Some(0.0));
        assert_eq!(
            comm.get("pool_grow_after_warmup").unwrap().as_f64(),
            Some(0.0),
            "steady-state exchange allocated"
        );

        // The load-balancer smoke: the balancer engaged, pulled the
        // peak imbalance under the gate, and the pools still held.
        let skewed = doc.get("workloads").unwrap().get("skewed8").unwrap();
        assert_eq!(skewed.get("nranks").unwrap().as_f64(), Some(8.0));
        let comm = skewed.get("comm").unwrap();
        assert!(comm.get("rebalances").unwrap().as_f64().unwrap() > 0.0);
        assert!(comm.get("balance_msgs").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            comm.get("pool_grow_after_warmup").unwrap().as_f64(),
            Some(0.0),
            "steady-state exchange allocated under rebalancing"
        );
        let imbalance = skewed.get("atom_imbalance").unwrap().as_f64().unwrap();
        assert!(
            imbalance <= 1.15,
            "skewed8 peak imbalance {imbalance} above the 1.15 gate"
        );
    }
}
