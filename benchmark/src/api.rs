//! The API seam: every use of the program under test (`lammps_kk`) lives
//! in this file, so a refactor PR can see exactly which public surface
//! the benchmark pins (listed in `../README.md`). Nothing here measures
//! from *inside* the program: layers are timed by wrapping the public
//! trait objects (`PairStyle`, `Comm`, `Fix`) in decorators installed
//! through the `RunSpec::run` factory, by one `ProfileSubscriber`, and by
//! timing isolated calls into public functions.
//!
//! Everything that leaves this file is plain data (`RunResult`, `Span`,
//! `AtomState`, `f64`s).

use crate::workloads::{Instrument, Problem, RunConfig, SpaceKind};
use lammps_kk::core::neighbor::Bins;
use lammps_kk::gpusim::{KernelStats, ProfileSubscriber, TransferDir};
use lammps_kk::kokkos::profile;
use lammps_kk::kokkos::{ScatterMode, ScatterView};
use lammps_kk::prelude::*;
use lammps_kk::reaxff::hns;
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval of a traced run. `parent` is the name of the span
/// that caused it (`""` for a timestep); all spans of one timestep carry
/// the same `step` (`-1`: outside every timestep, i.e. set-up).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: &'static str,
    pub start: f64,
    pub end: f64,
    pub step: i64,
}

/// Counts taken by the subscriber inside the timed steps of one rank.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub launches: u64,
    pub neighbor_launches: u64,
    pub transfer_bytes: u64,
    pub pair_flops: f64,
    pub pair_bytes: f64,
    pub model_seconds: f64,
}

/// What one rank's instruments recorded. All times are seconds since the
/// call into `RunSpec::run`.
#[derive(Debug, Default)]
pub struct RankLog {
    pub step_begin: Vec<f64>,
    pub step_end: Vec<f64>,
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub qeq_iterations: Vec<f64>,
    warmup: usize,
    last: usize,
    timed: bool,
}

type SharedLog = Arc<Mutex<RankLog>>;

thread_local! {
    /// The log of the rank this thread drives (set by the factory, which
    /// `RunSpec::run` calls on the rank's own thread). The subscriber is
    /// process-global; this is how its callbacks find their rank.
    static CURRENT: RefCell<Option<(SharedLog, Instant)>> = const { RefCell::new(None) };
}

fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, RankLog> {
    log.lock().expect("a rank panicked while holding its log")
}

// ---------------------------------------------------------------------
// Instruments installed through the factory
// ---------------------------------------------------------------------

/// The only instrument of an untraced run: one stamp at the start of a
/// step (as the first fix) and one at its end (as the last fix).
struct StepClock {
    log: SharedLog,
    t0: Instant,
    at_end: bool,
}

impl Fix for StepClock {
    fn name(&self) -> &str {
        "bench/step_clock"
    }
    fn initial_integrate(&mut self, _system: &mut System, _dt: f64) {
        if !self.at_end {
            let t = self.t0.elapsed().as_secs_f64();
            let mut log = lock(&self.log);
            if log.step_begin.len() == log.warmup {
                log.timed = true;
            }
            log.step_begin.push(t);
        }
    }
    fn final_integrate(&mut self, _system: &mut System, _dt: f64) {
        if self.at_end {
            let t = self.t0.elapsed().as_secs_f64();
            let mut log = lock(&self.log);
            log.step_end.push(t);
            if log.step_end.len() == log.last {
                log.timed = false;
            }
        }
    }
}

fn push_span(log: &SharedLog, name: &'static str, parent: &'static str, start: f64, end: f64) {
    let mut log = lock(log);
    let step = if log.step_begin.len() > log.step_end.len() {
        log.step_begin.len() as i64 - 1
    } else {
        -1
    };
    log.spans.push(Span {
        name,
        // Outside the timestep loop (set-up, final gather) no step caused it.
        parent: if step < 0 && parent == "step" {
            ""
        } else {
            parent
        },
        start,
        end,
        step,
    });
}

struct TimedFix {
    inner: Box<dyn Fix>,
    log: SharedLog,
    t0: Instant,
}

impl Fix for TimedFix {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn initial_integrate(&mut self, system: &mut System, dt: f64) {
        let start = self.t0.elapsed().as_secs_f64();
        self.inner.initial_integrate(system, dt);
        let end = self.t0.elapsed().as_secs_f64();
        push_span(&self.log, "fix.initial", "step", start, end);
    }
    fn post_force(&mut self, system: &mut System, dt: f64, step: u64) {
        self.inner.post_force(system, dt, step);
    }
    fn final_integrate(&mut self, system: &mut System, dt: f64) {
        let start = self.t0.elapsed().as_secs_f64();
        self.inner.final_integrate(system, dt);
        let end = self.t0.elapsed().as_secs_f64();
        push_span(&self.log, "fix.final", "step", start, end);
    }
}

struct TimedPair {
    inner: Box<dyn PairStyle>,
    log: SharedLog,
    t0: Instant,
}

impl PairStyle for TimedPair {
    fn name(&self) -> &str {
        self.inner.name()
    }
    // Forwarded, so a downcast to the concrete style still works through
    // the decorator.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn set_name(&mut self, name: &str) {
        self.inner.set_name(name)
    }
    fn cutoff(&self) -> f64 {
        self.inner.cutoff()
    }
    fn wants_half_list(&self) -> bool {
        self.inner.wants_half_list()
    }
    fn needs_reverse_comm(&self) -> bool {
        self.inner.needs_reverse_comm()
    }
    fn compute(&mut self, system: &mut System, list: &NeighborList, eflag: bool) -> PairResults {
        let start = self.t0.elapsed().as_secs_f64();
        let results = self.inner.compute(system, list, eflag);
        let end = self.t0.elapsed().as_secs_f64();
        push_span(&self.log, "pair.compute", "step", start, end);
        if let Some(reax) = self.inner.as_any().downcast_ref::<PairReaxff>() {
            let mut log = lock(&self.log);
            if log.timed {
                log.qeq_iterations.push(reax.last_qeq_iterations as f64);
            }
        }
        results
    }
    fn scatter_grow_count(&self) -> u64 {
        self.inner.scatter_grow_count()
    }
}

struct TimedComm {
    inner: Box<dyn Comm>,
    log: SharedLog,
    t0: Instant,
}

impl TimedComm {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Comm) -> R) -> R {
        let start = self.t0.elapsed().as_secs_f64();
        let result = f(self.inner.as_mut());
        let end = self.t0.elapsed().as_secs_f64();
        push_span(&self.log, name, "step", start, end);
        result
    }
}

impl Comm for TimedComm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn nranks(&self) -> usize {
        self.inner.nranks()
    }
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn borders(&mut self, system: &mut System, cutghost: f64) -> Result<(), CommError> {
        self.timed("comm.borders", |c| c.borders(system, cutghost))
    }
    fn forward(&mut self, system: &mut System) -> Result<(), CommError> {
        self.timed("comm.forward", |c| c.forward(system))
    }
    fn reverse(&mut self, system: &mut System) -> Result<(), CommError> {
        self.timed("comm.reverse", |c| c.reverse(system))
    }
    fn forward_scalar(&mut self, system: &mut System, values: &mut [f64]) -> Result<(), CommError> {
        self.timed("comm.forward_scalar", |c| c.forward_scalar(system, values))
    }
    fn allreduce_or(&mut self, flag: bool) -> Result<bool, CommError> {
        self.timed("comm.allreduce", |c| c.allreduce_or(flag))
    }
    fn allreduce_sum(&mut self, value: f64) -> Result<f64, CommError> {
        self.timed("comm.allreduce", |c| c.allreduce_sum(value))
    }
    fn quiesce(&mut self) -> Result<(), CommError> {
        self.inner.quiesce()
    }
    fn stats(&self) -> CommStats {
        self.inner.stats()
    }
    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }
    fn grow_count(&self) -> u64 {
        self.inner.grow_count()
    }
    fn phase_seconds(&self) -> [f64; 2] {
        self.inner.phase_seconds()
    }
    fn note_work(&mut self, seconds: f64) {
        self.inner.note_work(seconds)
    }
    fn max_owned(&self) -> usize {
        self.inner.max_owned()
    }
}

/// The benchmark's one `ProfileSubscriber`: counts launches and
/// transfers, sums the kernel event counts, and turns the program's own
/// regions inside a pair style into spans. Every callback runs on the
/// thread that drives a rank, so it writes that rank's log.
struct LayerProbe {
    arch: GpuArch,
}

impl ProfileSubscriber for LayerProbe {
    fn region_end(&self, path: &str, _depth: usize, seconds: f64) {
        let name = match path.rsplit('/').next().unwrap_or("") {
            "ComputeUi" => "snap.ui",
            "ComputeYi" => "snap.yi",
            "ComputeDeidrj" => "snap.deidrj",
            "bond_order" => "reaxff.bond_order",
            "qeq" => "reaxff.qeq",
            "valence" => "reaxff.valence",
            "nonbonded" => "reaxff.nonbonded",
            _ => return,
        };
        CURRENT.with(|c| {
            if let Some((log, t0)) = c.borrow().as_ref() {
                let end = t0.elapsed().as_secs_f64();
                push_span(log, name, "pair.compute", end - seconds, end);
            }
        });
    }

    fn kernel_launch(&self, name: &str, _region: &str, _work_items: usize) {
        CURRENT.with(|c| {
            if let Some((log, _)) = c.borrow().as_ref() {
                let mut log = lock(log);
                if log.timed {
                    log.counts.launches += 1;
                    if name == "NeighborBuild" {
                        log.counts.neighbor_launches += 1;
                    }
                }
            }
        });
    }

    fn kernel_stats(&self, stats: &KernelStats) {
        CURRENT.with(|c| {
            if let Some((log, _)) = c.borrow().as_ref() {
                let mut log = lock(log);
                if log.timed {
                    log.counts.model_seconds += stats.time_on_default(&self.arch).seconds;
                    if stats.name.starts_with("Pair") {
                        log.counts.pair_flops += stats.flops;
                        log.counts.pair_bytes += stats.dram_bytes + stats.reused_bytes;
                    }
                }
            }
        });
    }

    fn transfer(&self, _dir: TransferDir, _label: &str, bytes: u64) {
        CURRENT.with(|c| {
            if let Some((log, _)) = c.borrow().as_ref() {
                let mut log = lock(log);
                if log.timed {
                    log.counts.transfer_bytes += bytes;
                }
            }
        });
    }
}

// ---------------------------------------------------------------------
// Problems
// ---------------------------------------------------------------------

/// Final state of one atom, by global tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomState {
    pub tag: i64,
    pub typ: i32,
    pub x: [f64; 3],
    pub v: [f64; 3],
    pub f: [f64; 3],
}

struct Setup {
    atoms: AtomData,
    domain: Domain,
    units: Units,
    dt: f64,
}

/// Generate the initial condition. Only the velocities depend on `seed`.
fn initial_condition(problem: Problem, seed: u64) -> Setup {
    match problem {
        Problem::LjMelt { cells: n } => {
            let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
            let mut atoms = AtomData::from_positions(&lat.positions(n, n, n));
            let units = Units::lj();
            create_velocities(&mut atoms, &units, 1.44, seed);
            Setup {
                atoms,
                domain: lat.domain(n, n, n),
                units,
                dt: 0.005,
            }
        }
        Problem::SnapW { cells: n } => {
            let lat = Lattice::new(LatticeKind::Bcc, 3.16);
            let mut atoms = AtomData::from_positions(&lat.positions(n, n, n));
            atoms.mass = problem.masses().to_vec();
            let units = Units::metal();
            create_velocities(&mut atoms, &units, 300.0, seed);
            Setup {
                atoms,
                domain: lat.domain(n, n, n),
                units,
                dt: 0.0005,
            }
        }
        Problem::ReaxHns { cells: n } => {
            let (positions, types, domain) = hns::crystal(n, n, n, 7.5);
            let mut atoms = AtomData::from_positions(&positions);
            atoms.mass = problem.masses().to_vec();
            for (i, &t) in types.iter().enumerate() {
                atoms.typ.h_view_mut().set([i], t);
            }
            let units = Units::metal();
            create_velocities(&mut atoms, &units, 300.0, seed);
            Setup {
                atoms,
                domain,
                units,
                dt: 0.0001,
            }
        }
    }
}

fn make_space(kind: SpaceKind) -> Space {
    match kind {
        SpaceKind::Serial => Space::Serial,
        SpaceKind::Threads => Space::Threads,
        SpaceKind::Device => Space::device(GpuArch::h100()),
    }
}

fn make_pair(problem: Problem, space: &Space, multi_rank: bool) -> Box<dyn PairStyle> {
    match problem {
        Problem::LjMelt { .. } => {
            // Across ranks the pair convention is half list + newton on,
            // completed by reverse communication; a single rank takes the
            // space's default (half on host, full on device).
            let options = PairKokkosOptions {
                force_half: multi_rank.then_some(true),
                ..Default::default()
            };
            Box::new(PairKokkos::with_options(
                LjCut::single_type(1.0, 1.0, 2.5),
                space,
                options,
            ))
        }
        Problem::SnapW { .. } => {
            let params = SnapParams {
                twojmax: 8,
                rcut: 4.7,
                ..Default::default()
            };
            Box::new(PairSnap::new(params, space))
        }
        Problem::ReaxHns { .. } => Box::new(PairReaxff::new(ReaxParams::hns_like())),
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// Everything one `RunSpec::run` produced, as plain data.
#[derive(Debug, Default)]
pub struct RunResult {
    pub natoms: usize,
    pub nranks: usize,
    pub box_lengths: [f64; 3],
    /// Seconds from the call into `RunSpec::run` to its return.
    pub run_seconds: f64,
    pub ranks: Vec<RankLog>,
    pub states: Vec<AtomState>,
    pub initial_tags: Vec<i64>,
    pub e_pair: f64,
    pub e_kinetic: f64,
    /// `e_total` of the set-up thermo row, summed over ranks.
    pub e_total_setup: f64,
    pub total_pairs: u64,
    pub rebuilds: u64,
    pub neighbor_share: f64,
    pub halo_bytes: u64,
    pub msgs: u64,
    pub migrate_bytes: u64,
    pub pool_grow_after_warmup: u64,
    pub pair_time_imbalance: f64,
    pub atom_imbalance: f64,
}

/// Run one configuration through `RunSpec::run`. `Err` carries the
/// program's failure (a `CommFailure` or a panic message).
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let setup = initial_condition(cfg.problem, cfg.seed);
    let space = make_space(cfg.space);
    let mut spec = RunSpec::new(&setup.atoms, setup.domain, cfg.steps);
    spec.units = setup.units;
    spec.space = space.clone();
    spec.warmup_steps = cfg.warmup;
    if cfg.ranks > 1 {
        spec = spec.comm(CommSpec::Brick {
            ranks: cfg.ranks,
            balance: None,
        });
    }
    let initial_tags: Vec<i64> = spec.records.iter().map(|r| r.tag).collect();
    let capacity = (cfg.warmup + cfg.steps) as usize + 1;
    let logs: Vec<SharedLog> = (0..cfg.ranks.max(1))
        .map(|_| {
            Arc::new(Mutex::new(RankLog {
                step_begin: Vec::with_capacity(capacity),
                step_end: Vec::with_capacity(capacity),
                spans: Vec::with_capacity(if cfg.instrument == Instrument::Traced {
                    capacity * 24
                } else {
                    0
                }),
                warmup: cfg.warmup as usize,
                last: (cfg.warmup + cfg.steps) as usize,
                ..Default::default()
            }))
        })
        .collect();
    let subscriber = match cfg.instrument {
        Instrument::Clock => None,
        Instrument::Traced => Some(profile::register_subscriber(Arc::new(LayerProbe {
            arch: GpuArch::h100(),
        }))),
        Instrument::Collector => Some(profile::register_subscriber(Arc::new(
            TraceCollector::wall(GpuArch::h100()),
        ))),
    };
    let traced = cfg.instrument == Instrument::Traced;
    let multi_rank = cfg.ranks > 1;
    let (problem, dt) = (cfg.problem, setup.dt);

    let t0 = Instant::now();
    let factory = |rank: usize, mut system: System| -> Simulation {
        let log = Arc::clone(&logs[rank]);
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&log), t0)));
        let mut pair = make_pair(problem, &system.space, multi_rank);
        if traced {
            let inner = system
                .comm
                .take()
                .expect("the driver installs a comm layer");
            system.comm = Some(Box::new(TimedComm {
                inner,
                log: Arc::clone(&log),
                t0,
            }));
            pair = Box::new(TimedPair {
                inner: pair,
                log: Arc::clone(&log),
                t0,
            });
        }
        let mut sim = Simulation::new(system, pair);
        sim.dt = dt;
        let mut fixes: Vec<Box<dyn Fix>> = vec![Box::new(StepClock {
            log: Arc::clone(&log),
            t0,
            at_end: false,
        })];
        for fix in std::mem::take(&mut sim.fixes) {
            fixes.push(if traced {
                Box::new(TimedFix {
                    inner: fix,
                    log: Arc::clone(&log),
                    t0,
                })
            } else {
                fix
            });
        }
        fixes.push(Box::new(StepClock {
            log,
            t0,
            at_end: true,
        }));
        sim.fixes = fixes;
        sim
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.run(factory)));
    let run_seconds = t0.elapsed().as_secs_f64();
    CURRENT.with(|c| *c.borrow_mut() = None);
    if let Some(id) = subscriber {
        profile::unregister_subscriber(id);
    }
    let run = match outcome {
        Ok(Ok(run)) => run,
        Ok(Err(failure)) => return Err(failure.to_string()),
        Err(_) => return Err("the run panicked".to_string()),
    };

    let stats = run.comm_stats;
    let timings = run
        .timings
        .iter()
        .fold((0.0, 0.0), |acc, t| (acc.0 + t.neighbor, acc.1 + t.total()));
    Ok(RunResult {
        natoms: run.natoms,
        nranks: run.nranks,
        box_lengths: setup.domain.lengths(),
        run_seconds,
        ranks: logs
            .iter()
            .map(|log| std::mem::take(&mut *lock(log)))
            .collect(),
        states: run
            .states
            .iter()
            .map(|s| AtomState {
                tag: s.tag,
                typ: s.typ,
                x: s.x,
                v: s.v,
                f: s.f,
            })
            .collect(),
        initial_tags,
        e_pair: run.e_pair,
        e_kinetic: run.e_kinetic,
        e_total_setup: run
            .thermo
            .iter()
            .filter_map(|rows| rows.first())
            .map(|row| row.e_total)
            .sum(),
        total_pairs: run.total_pairs,
        rebuilds: run.rebuild_counts.iter().copied().max().unwrap_or(0),
        neighbor_share: if timings.1 > 0.0 {
            timings.0 / timings.1
        } else {
            0.0
        },
        halo_bytes: stats.forward_bytes + stats.reverse_bytes + stats.scalar_bytes,
        msgs: stats.forward_msgs
            + stats.reverse_msgs
            + stats.scalar_msgs
            + stats.border_msgs
            + stats.migrate_msgs,
        migrate_bytes: stats.migrate_bytes,
        pool_grow_after_warmup: run.comm_grow_after_warmup,
        pair_time_imbalance: run.pair_time_imbalance(),
        atom_imbalance: run.atom_imbalance(),
    })
}

// ---------------------------------------------------------------------
// Probes: isolated timed calls into public functions
// ---------------------------------------------------------------------

/// Median seconds of `calls` calls to `f`, after one untimed call.
fn median_seconds(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..calls)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&mut samples)
}

/// Seconds per dispatch of an empty-body `parallel_for` of `n` items.
pub fn probe_parallel_for(kind: SpaceKind, n: usize, calls: usize) -> f64 {
    let space = make_space(kind);
    median_seconds(calls, || {
        space.parallel_for("bench/empty", n, |i| {
            black_box(i);
        })
    })
}

/// Seconds per dispatch of a trivial `parallel_reduce_sum` of `n` items.
pub fn probe_parallel_reduce(kind: SpaceKind, n: usize, calls: usize) -> f64 {
    let space = make_space(kind);
    median_seconds(calls, || {
        black_box(space.parallel_reduce_sum("bench/sum", n, |i| i as f64));
    })
}

/// Seconds per dispatch of a `parallel_for` of `n` items whose body does
/// about 50 floating-point operations.
pub fn probe_flop_body(kind: SpaceKind, n: usize, calls: usize) -> f64 {
    let space = make_space(kind);
    let out: Vec<std::sync::atomic::AtomicU64> = (0..n).map(|_| Default::default()).collect();
    median_seconds(calls, || {
        space.parallel_for("bench/flops", n, |i| {
            let mut x = i as f64 * 1e-3 + 1.0;
            for _ in 0..25 {
                x = x * 0.999 + 0.001;
            }
            out[i].store(x.to_bits(), std::sync::atomic::Ordering::Relaxed);
        })
    })
}

/// A single-rank system rebuilt from a run's final state, with ghosts
/// and a neighbor list, for the neighbor and scatter probes.
pub struct NeighborProbe {
    system: System,
    settings: NeighborSettings,
    list: NeighborList,
    space: Space,
    /// Neighbor indices of every owned atom, row after row.
    rows: Vec<u32>,
}

impl NeighborProbe {
    pub fn new(problem: Problem, kind: SpaceKind, states: &[AtomState]) -> NeighborProbe {
        let setup = initial_condition(problem, 0);
        let records: Vec<AtomRecord> = states
            .iter()
            .map(|s| AtomRecord {
                tag: s.tag,
                typ: s.typ,
                q: 0.0,
                x: s.x,
                v: s.v,
                image: [0; 3],
            })
            .collect();
        let atoms = AtomData::from_records(&records, problem.masses());
        let space = make_space(kind);
        let mut system = System::new(atoms, setup.domain, space.clone()).with_units(setup.units);
        let pair = make_pair(problem, &space, false);
        let settings = NeighborSettings::new(pair.cutoff(), 0.3, pair.wants_half_list());
        let cutneigh = settings.cutneigh();
        let mut comm = system.comm.take().expect("a new system has a comm layer");
        comm.borders(&mut system, cutneigh)
            .expect("a single-rank comm cannot fail");
        system.comm = Some(comm);
        let list = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
        let mut rows = Vec::with_capacity(list.total_pairs as usize);
        for i in 0..list.nlocal {
            for s in 0..list.numneigh.at([i]) as usize {
                rows.push(list.neighbors.at([i, s]));
            }
        }
        NeighborProbe {
            system,
            settings,
            list,
            space,
            rows,
        }
    }

    pub fn total_pairs(&self) -> u64 {
        self.list.total_pairs
    }

    pub fn nall(&self) -> usize {
        self.system.atoms.nall()
    }

    /// Seconds per `Bins::rebuild` of all owned and ghost atoms.
    pub fn bins_seconds(&self, calls: usize) -> f64 {
        let cutneigh = self.settings.cutneigh();
        let mut bins = Bins::empty();
        median_seconds(calls, || {
            bins.rebuild(&self.system.atoms, &self.system.domain, cutneigh, cutneigh)
        })
    }

    /// Seconds per `NeighborList::rebuild` (bins, fill, working-set
    /// sample) in this probe's space.
    pub fn rebuild_seconds(&mut self, calls: usize) -> f64 {
        let (system, settings, space, list) =
            (&self.system, &self.settings, &self.space, &mut self.list);
        median_seconds(calls, || {
            list.rebuild(&system.atoms, &system.domain, settings, space)
        })
    }

    /// Seconds per `working_set_bytes(2048)` sample.
    pub fn working_set_seconds(&self, calls: usize) -> f64 {
        median_seconds(calls, || {
            black_box(self.list.working_set_bytes(2048));
        })
    }

    /// Seconds per `ScatterView::add` over this list's own neighbor rows.
    pub fn scatter_add_seconds(&self, atomic: bool, calls: usize) -> f64 {
        let mode = if atomic {
            ScatterMode::Atomic
        } else {
            ScatterMode::Duplicated
        };
        let view = ScatterView::new(self.nall(), 3, mode);
        let adds = self.rows.len().max(1) as f64;
        median_seconds(calls, || {
            for &j in &self.rows {
                view.add(j as usize, 0, 1.0);
            }
        }) / adds
    }

    /// Seconds per `contribute_into` of a duplicated `nall × 3` view.
    pub fn contribute_seconds(&self, calls: usize) -> f64 {
        let mut view = ScatterView::new(self.nall(), 3, ScatterMode::Duplicated);
        let mut out = vec![0.0; self.nall() * 3];
        median_seconds(calls, || view.contribute_into(&mut out))
    }
}
