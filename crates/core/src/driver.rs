//! The rank driver: [`RunSpec::run`] takes an initial condition and a
//! communication layout, runs one [`Simulation`] per rank, and gathers
//! the result into a [`MultiRankRun`]. Single-rank and brick-decomposed
//! runs share one per-rank body (`RunSpec::drive_rank`) and one
//! gather; they differ only in how many ranks there are and what
//! carries them (the calling thread, or one scoped thread per rank with
//! a [`BrickComm`] installed).

use crate::atom::{AtomData, AtomRecord, Mask};
use crate::comm::balance::BalancePolicy;
use crate::comm::brick::BrickComm;
use crate::comm::{CommError, CommSpec, CommStats, FaultConfig, FaultStats};
use crate::compute;
use crate::decomp::BrickDecomp;
use crate::domain::Domain;
use crate::sim::{Simulation, System, ThermoRow, Timings};
use crate::units::Units;
use lkk_kokkos::{profile, Space};

/// Everything a driver run needs besides the per-rank styles: the
/// initial atoms (as records), the global box, the step counts, and the
/// communication layout. [`RunSpec::run`] is the unified entry point —
/// single-rank and brick-decomposed runs share it and return the same
/// gathered [`MultiRankRun`].
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub records: Vec<AtomRecord>,
    /// Per-type mass table (global, not part of the records).
    pub masses: Vec<f64>,
    pub domain: Domain,
    pub units: Units,
    pub space: Space,
    /// Steps run before the grow counters are snapshotted (pool sizes
    /// may still grow while the system equilibrates).
    pub warmup_steps: u64,
    /// Measured steps after warmup.
    pub steps: u64,
    /// When set, every rank's [`BrickComm`] is built on the
    /// fault-injecting, recovering transport, all sharing the same
    /// seeded schedule (see [`crate::comm::fault`]).
    pub fault: Option<FaultConfig>,
    /// Communication layout: [`CommSpec::Single`] (the default), or
    /// [`CommSpec::Brick`] with a rank count and an optional
    /// load-balance policy.
    pub comm: CommSpec,
}

/// Final state of one atom of a rank-parallel run, gathered and keyed
/// by global tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankAtomState {
    pub tag: i64,
    pub typ: i32,
    pub x: [f64; 3],
    pub v: [f64; 3],
    pub f: [f64; 3],
}

/// Gathered result of [`RunSpec::run`]: final atom states plus the
/// reduced energies and the per-rank diagnostics the perf harness and
/// the equivalence tests assert on.
#[derive(Debug, Clone)]
pub struct MultiRankRun {
    pub nranks: usize,
    pub natoms: usize,
    pub steps: u64,
    /// All atoms, sorted by tag.
    pub states: Vec<RankAtomState>,
    /// Globally reduced pair energy of the final configuration.
    pub e_pair: f64,
    /// Globally reduced kinetic energy of the final configuration.
    pub e_kinetic: f64,
    /// Per-rank thermo rows (local quantities — not reduced).
    pub thermo: Vec<Vec<ThermoRow>>,
    /// Exchange counters summed over ranks.
    pub comm_stats: CommStats,
    /// Message-pool growths summed over ranks: total and after warmup.
    pub comm_grow: u64,
    pub comm_grow_after_warmup: u64,
    /// Neighbor-list growths summed over ranks: total and after warmup.
    pub neighbor_grow: u64,
    pub neighbor_grow_after_warmup: u64,
    /// Scatter-pool growths summed over ranks: total and after warmup.
    pub scatter_grow: u64,
    pub scatter_grow_after_warmup: u64,
    pub rebuild_counts: Vec<u64>,
    /// Neighbor pairs summed over ranks at the final build.
    pub total_pairs: u64,
    pub timings: Vec<Timings>,
    /// Owned (`nlocal`) atoms per rank at the end of the run.
    pub owned_atoms: Vec<usize>,
    /// Peak owned atoms per rank over the whole run (sampled at every
    /// migration), so transient spikes between rebalances are visible.
    pub owned_atoms_peak: Vec<usize>,
    /// Fault-injection / recovery counters summed over ranks (all zero
    /// unless [`RunSpec::fault`] was set).
    pub fault_stats: FaultStats,
}

/// max/mean of a per-rank sample: 1.0 = perfectly balanced, and the
/// excess over 1.0 is the fraction of the slowest rank's work the
/// average rank does not share (the paper's strong-scaling breakdowns
/// hinge on exactly this ratio).
fn imbalance(samples: impl Iterator<Item = f64>) -> f64 {
    let (mut max, mut sum, mut n) = (f64::NEG_INFINITY, 0.0, 0u32);
    for s in samples {
        max = max.max(s);
        sum += s;
        n += 1;
    }
    if n == 0 || sum <= 0.0 {
        return 1.0;
    }
    max / (sum / n as f64)
}

impl MultiRankRun {
    /// Load imbalance of the atom distribution: the peak `nlocal` any
    /// rank held at any point of the run, over the ideal mean
    /// (`natoms / nranks`). Max-over-run rather than final-census, so a
    /// transient pile-up between rebalances is not a blind spot (the
    /// final-census version reported 1.0 for a run whose midpoint was
    /// badly skewed).
    pub fn atom_imbalance(&self) -> f64 {
        let mean = self.natoms as f64 / self.nranks.max(1) as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        let peak = self.owned_atoms_peak.iter().copied().max().unwrap_or(0);
        (peak as f64 / mean).max(1.0)
    }

    /// Load imbalance of the measured pair-force time: max/mean of the
    /// per-rank `Timings::pair` seconds. Wall-clock derived — advisory,
    /// never part of a deterministic baseline.
    pub fn pair_time_imbalance(&self) -> f64 {
        imbalance(self.timings.iter().map(|t| t.pair))
    }
}

/// One or more ranks failed a rank-parallel run: the per-rank
/// [`CommError`]s, in ascending rank order. Ranks that completed (or
/// were wedged behind the failing ones and timed out) each contribute
/// their own entry.
#[derive(Debug, Clone)]
pub struct CommFailure {
    pub nranks: usize,
    pub errors: Vec<(usize, CommError)>,
}

impl std::fmt::Display for CommFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} of {} ranks failed:", self.errors.len(), self.nranks)?;
        for (rank, err) in &self.errors {
            write!(f, " [rank {rank}: {err}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for CommFailure {}

/// `[comm pool, neighbor list, scatter pool]` heap growths so far.
fn grow_counts(sim: &Simulation) -> [u64; 3] {
    [
        sim.comm_grow_count(),
        sim.neighbor_grow_count(),
        sim.pair.scatter_grow_count(),
    ]
}

/// What one rank hands to `RunSpec::gather`.
struct RankOutcome {
    states: Vec<RankAtomState>,
    e_pair: f64,
    e_kinetic: f64,
    thermo: Vec<ThermoRow>,
    stats: CommStats,
    /// [`grow_counts`] at the end of the run and at the end of warmup.
    grow: [u64; 3],
    grow_warm: [u64; 3],
    rebuild_count: u64,
    total_pairs: u64,
    timings: Timings,
    nlocal: usize,
    nlocal_peak: usize,
    fstats: FaultStats,
}

impl RunSpec {
    /// Capture `atoms` as the initial condition (LJ units, serial
    /// space, no warmup, single-rank comm by default — set the public
    /// fields or chain [`RunSpec::comm`] to change).
    pub fn new(atoms: &AtomData, domain: Domain, steps: u64) -> Self {
        RunSpec {
            records: (0..atoms.nlocal).map(|i| atoms.record(i)).collect(),
            masses: atoms.mass.clone(),
            domain,
            units: Units::lj(),
            space: Space::Serial,
            warmup_steps: 0,
            steps,
            fault: None,
            comm: CommSpec::Single,
        }
    }

    /// Set the communication layout (builder-style).
    pub fn comm(mut self, comm: CommSpec) -> Self {
        self.comm = comm;
        self
    }

    /// Run this spec through its configured [`CommSpec`] — the unified
    /// driver entry point.
    ///
    /// `factory` is called once per rank with the rank index and that
    /// rank's [`System`] (atoms partitioned by brick, comm layer
    /// installed) and must return the [`Simulation`] to drive — which
    /// is how *any* pair style or fix runs unmodified on N ranks. Every
    /// rank must be configured identically (same styles, same neighbor
    /// settings): the exchanges are collective, and divergent
    /// configuration desyncs them.
    ///
    /// Returns `Err(CommFailure)` when any rank aborts with a
    /// [`CommError`] (unrecoverable injected fault, peer disconnect, or
    /// rank panic); the surviving ranks drain out via their own bounded
    /// retry budgets, so the call returns instead of deadlocking.
    pub fn run<F>(&self, factory: F) -> Result<MultiRankRun, CommFailure>
    where
        F: Fn(usize, System) -> Simulation + Sync,
    {
        match self.comm {
            // Bit-for-bit the classic in-process `Simulation::run` loop
            // on a `SingleRankComm`, in the brick arm's result shape.
            CommSpec::Single => {
                let sim = factory(0, self.system_for(&self.records));
                self.gather(vec![self.drive_rank(sim)])
            }
            CommSpec::Brick { ranks, balance } => self.run_brick(ranks, balance, &factory),
        }
    }

    /// This rank's [`System`]: its share of the atoms in the global
    /// box, on the default single-rank comm.
    fn system_for(&self, share: &[AtomRecord]) -> System {
        let atoms = AtomData::from_records(share, &self.masses);
        System::new(atoms, self.domain, self.space.clone()).with_units(self.units)
    }

    /// One rank's whole run: warmup, grow-counter snapshot, measured
    /// steps, final-state capture, the two energy reductions, and the
    /// shutdown handshake. On a single-rank comm the reductions are
    /// identities and the handshake a no-op.
    fn drive_rank(&self, mut sim: Simulation) -> Result<RankOutcome, CommError> {
        sim.try_run(self.warmup_steps)?;
        let grow_warm = grow_counts(&sim);
        sim.try_run(self.steps)?;
        let total_pairs = sim.neighbor_list().total_pairs;
        sim.system.atoms.sync(&Space::Serial, Mask::ALL);
        let states: Vec<RankAtomState> = {
            let a = &sim.system.atoms;
            let x = a.x.h_view();
            let v = a.v.h_view();
            let f = a.f.h_view();
            let tag = a.tag.h_view();
            let typ = a.typ.h_view();
            (0..a.nlocal)
                .map(|i| RankAtomState {
                    tag: tag.at([i]),
                    typ: typ.at([i]),
                    x: [x.at([i, 0]), x.at([i, 1]), x.at([i, 2])],
                    v: [v.at([i, 0]), v.at([i, 1]), v.at([i, 2])],
                    f: [f.at([i, 0]), f.at([i, 1]), f.at([i, 2])],
                })
                .collect()
        };
        let e_local = sim.last_results.energy;
        let e_pair = sim
            .system
            .with_comm_taken(|_, c| c.allreduce_sum(e_local))?;
        let ke_local = compute::kinetic_energy(&sim.system.atoms, &sim.system.units);
        let e_kinetic = sim
            .system
            .with_comm_taken(|_, c| c.allreduce_sum(ke_local))?;
        // Final handshake: no peer may still be waiting on a retransmit
        // when this rank drops its channel endpoints.
        sim.system.with_comm_taken(|_, c| c.quiesce())?;
        let nlocal = sim.system.atoms.nlocal;
        let nlocal_peak = sim
            .system
            .comm
            .as_ref()
            .map_or(0, |c| c.max_owned())
            .max(nlocal);
        Ok(RankOutcome {
            states,
            e_pair,
            e_kinetic,
            thermo: sim.thermo.clone(),
            stats: sim.comm_stats(),
            grow: grow_counts(&sim),
            grow_warm,
            rebuild_count: sim.rebuild_count,
            total_pairs,
            timings: sim.timings,
            nlocal,
            nlocal_peak,
            fstats: sim.comm_fault_stats(),
        })
    }

    /// Merge the per-rank results (ascending rank order), or report
    /// every rank that failed.
    fn gather(
        &self,
        results: Vec<Result<RankOutcome, CommError>>,
    ) -> Result<MultiRankRun, CommFailure> {
        let nranks = results.len();
        let mut outcomes = Vec::with_capacity(nranks);
        let mut errors = Vec::new();
        for (rank, result) in results.into_iter().enumerate() {
            match result {
                Ok(outcome) => outcomes.push(outcome),
                Err(err) => errors.push((rank, err)),
            }
        }
        if !errors.is_empty() {
            return Err(CommFailure { nranks, errors });
        }
        let natoms = self.records.len();
        let mut states: Vec<RankAtomState> = outcomes
            .iter()
            .flat_map(|o| o.states.iter().copied())
            .collect();
        states.sort_by_key(|s| s.tag);
        debug_assert_eq!(states.len(), natoms, "atoms lost or duplicated");
        let mut comm_stats = CommStats::default();
        let mut fault_stats = FaultStats::default();
        for o in &outcomes {
            comm_stats.add(&o.stats);
            fault_stats.add(&o.fstats);
        }
        let grow = |k: usize| outcomes.iter().map(|o| o.grow[k]).sum();
        let grow_after_warmup =
            |k: usize| outcomes.iter().map(|o| o.grow[k] - o.grow_warm[k]).sum();
        Ok(MultiRankRun {
            nranks,
            natoms,
            steps: self.steps,
            e_pair: outcomes[0].e_pair,
            e_kinetic: outcomes[0].e_kinetic,
            comm_stats,
            comm_grow: grow(0),
            comm_grow_after_warmup: grow_after_warmup(0),
            neighbor_grow: grow(1),
            neighbor_grow_after_warmup: grow_after_warmup(1),
            scatter_grow: grow(2),
            scatter_grow_after_warmup: grow_after_warmup(2),
            rebuild_counts: outcomes.iter().map(|o| o.rebuild_count).collect(),
            total_pairs: outcomes.iter().map(|o| o.total_pairs).sum(),
            owned_atoms: outcomes.iter().map(|o| o.nlocal).collect(),
            owned_atoms_peak: outcomes.iter().map(|o| o.nlocal_peak).collect(),
            timings: outcomes.iter().map(|o| o.timings).collect(),
            thermo: outcomes.into_iter().map(|o| o.thermo).collect(),
            states,
            fault_stats,
        })
    }

    /// Brick-decomposed arm of the unified driver: one thread per rank,
    /// each inside a `rank{r}` profiling region.
    fn run_brick<F>(
        &self,
        nranks: usize,
        balance: Option<BalancePolicy>,
        factory: &F,
    ) -> Result<MultiRankRun, CommFailure>
    where
        F: Fn(usize, System) -> Simulation + Sync,
    {
        let decomp = BrickDecomp::new(self.domain, nranks);
        let comms = BrickComm::create_all(&decomp, self.fault.as_ref(), balance);
        let mut shares: Vec<Vec<AtomRecord>> = comms.iter().map(|_| Vec::new()).collect();
        for r in &self.records {
            let mut x = r.x;
            self.domain.wrap(&mut x);
            shares[decomp.rank_of(&x)].push(AtomRecord { x, ..*r });
        }

        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .zip(shares)
                .enumerate()
                .map(|(rank, (comm, share))| {
                    scope.spawn(move || -> Result<RankOutcome, CommError> {
                        // Everything this thread does nests under its rank
                        // region, so subscribers see per-rank buckets.
                        let _rank_region = profile::begin_region(format!("rank{rank}"));
                        let mut system = self.system_for(&share);
                        system.comm = Some(Box::new(comm));
                        let outcome = self.drive_rank(factory(rank, system));
                        if let Err(err) = &outcome {
                            profile::note_instant(|| ("comm.fault.abort", err.rank() as f64));
                        }
                        outcome
                    })
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| match h.join() {
                    Ok(res) => res,
                    Err(payload) => {
                        let message = payload
                            .downcast_ref::<&'static str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "opaque panic payload".to_string());
                        Err(CommError::RankPanicked { rank, message })
                    }
                })
                .collect()
        });
        self.gather(results)
    }
}
