//! The workload table: plain data, no program API. Why each workload
//! exists is recorded in `../BENCHMARK.json` and `../README.md`.

/// The physical problem; only the velocity seed varies between runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Problem {
    /// fcc LJ melt, ρ* = 0.8442, T* = 1.44, rc 2.5, dt 0.005; 4·cells³ atoms.
    LjMelt { cells: usize },
    /// bcc W, a = 3.16 Å, 300 K, SNAP 2J = 8, rcut 4.7, dt 0.5 fs; 2·cells³ atoms.
    SnapW { cells: usize },
    /// HNS-like molecular crystal, 300 K, ReaxFF + QEq, dt 0.1 fs; 18·cells³ atoms.
    ReaxHns { cells: usize },
}

impl Problem {
    /// Per-type masses (physical: a unit mass at a metal-units timestep
    /// makes every step a neighbor-rebuild step).
    pub fn masses(&self) -> &'static [f64] {
        match self {
            Problem::LjMelt { .. } => &[1.0],
            Problem::SnapW { .. } => &[183.84],
            Problem::ReaxHns { .. } => &[12.0, 1.0, 14.0, 16.0],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpaceKind {
    Serial,
    Threads,
    /// `Space::device(h100)`: full list, newton off, `Layout::Left` views,
    /// kernel log on; dispatches fork like `Threads`.
    Device,
}

/// What is installed besides the two `StepClock` stamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instrument {
    /// Nothing: the run every end-to-end metric comes from.
    Clock,
    /// `TimedPair`/`TimedComm`/`TimedFix` decorators and the benchmark's
    /// `ProfileSubscriber`.
    Traced,
    /// The program's own `TraceCollector::wall` as the only subscriber.
    Collector,
}

/// One call of `RunSpec::run`.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub problem: Problem,
    pub space: SpaceKind,
    /// 1: `CommSpec::Single`; more: `CommSpec::Brick` without balancing.
    pub ranks: usize,
    pub warmup: u64,
    pub steps: u64,
    pub seed: u64,
    pub instrument: Instrument,
}

/// Bounds of the correctness checks, each at least 10× the largest value
/// seen while the benchmark was calibrated (see README, "Correctness").
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// |E_total(final) − E_total(set-up)| per atom.
    pub energy_drift: f64,
    /// |Σ m·v| per atom.
    pub momentum: f64,
    /// Relative difference of the final E_pair from the serial baseline's.
    pub e_pair_rel: f64,
    /// Largest |Δx| (minimum image) from the serial baseline's final state.
    pub max_dx: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub problem: Problem,
    pub space: SpaceKind,
    pub ranks: usize,
    /// Warm-up steps, whose step times are discarded.
    pub warmup: u64,
    /// Timed steps of one rep at `--seconds 10`; scaled linearly with
    /// `--seconds`, so counts repeat exactly for a given `--seconds`.
    pub steps: u64,
    /// Untraced reps of the workload itself and of its serial baseline in
    /// one `--trace 0` run, the second spread evenly among the first.
    /// Reps of one seed are replicas: the metrics come from their
    /// per-step lower envelope, and every rep is one more set-up sample.
    pub reps: usize,
    pub base_reps: usize,
    /// Does a rep repeat bit for bit at a fixed thread count? ReaxFF's
    /// angle and torsion kernels add forces atomically, so under
    /// `Threads` its last bits depend on thread timing; its reps are
    /// compared within `tol` instead.
    pub reproducible: bool,
    pub tol: Tolerances,
}

const LJ_32K: Problem = Problem::LjMelt { cells: 20 };

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "lj_melt_32k",
        problem: LJ_32K,
        space: SpaceKind::Threads,
        ranks: 1,
        warmup: 10,
        steps: 40,
        reps: 6,
        base_reps: 2,
        reproducible: true,
        tol: Tolerances {
            energy_drift: 5e-3,
            momentum: 1e-10,
            e_pair_rel: 1e-9,
            max_dx: 1e-6,
        },
    },
    Workload {
        name: "lj_small_2k",
        problem: Problem::LjMelt { cells: 8 },
        space: SpaceKind::Threads,
        ranks: 1,
        warmup: 50,
        steps: 500,
        reps: 6,
        base_reps: 3,
        reproducible: true,
        tol: Tolerances {
            energy_drift: 5e-3,
            momentum: 1e-10,
            e_pair_rel: 1e-6,
            max_dx: 1e-3,
        },
    },
    Workload {
        name: "lj_device_32k",
        problem: LJ_32K,
        space: SpaceKind::Device,
        ranks: 1,
        warmup: 10,
        steps: 40,
        reps: 6,
        base_reps: 2,
        reproducible: true,
        tol: Tolerances {
            energy_drift: 5e-3,
            momentum: 1e-10,
            e_pair_rel: 1e-9,
            max_dx: 1e-6,
        },
    },
    Workload {
        name: "lj_brick2_32k",
        problem: LJ_32K,
        space: SpaceKind::Serial,
        ranks: 2,
        warmup: 10,
        steps: 40,
        reps: 6,
        base_reps: 2,
        reproducible: true,
        tol: Tolerances {
            energy_drift: 5e-3,
            momentum: 1e-10,
            e_pair_rel: 1e-9,
            max_dx: 1e-6,
        },
    },
    Workload {
        name: "snap_w_2k",
        problem: Problem::SnapW { cells: 11 },
        space: SpaceKind::Threads,
        ranks: 1,
        warmup: 1,
        steps: 3,
        reps: 4,
        base_reps: 2,
        reproducible: true,
        tol: Tolerances {
            energy_drift: 1e-6,
            momentum: 1e-10,
            e_pair_rel: 1e-9,
            max_dx: 1e-6,
        },
    },
    Workload {
        name: "reaxff_hns_2k",
        problem: Problem::ReaxHns { cells: 5 },
        space: SpaceKind::Threads,
        ranks: 1,
        warmup: 10,
        steps: 40,
        reps: 5,
        base_reps: 2,
        reproducible: false,
        tol: Tolerances {
            energy_drift: 1e-4,
            momentum: 1e-10,
            e_pair_rel: 1e-9,
            max_dx: 1e-6,
        },
    },
];

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Timed steps of one rep for a `--seconds` budget.
    pub fn scaled_steps(&self, seconds: f64) -> u64 {
        ((self.steps as f64 * seconds / 10.0).round() as u64).max(1)
    }

    pub fn natoms(&self) -> usize {
        match self.problem {
            Problem::LjMelt { cells } => 4 * cells.pow(3),
            Problem::SnapW { cells } => 2 * cells.pow(3),
            Problem::ReaxHns { cells } => 18 * cells.pow(3),
        }
    }

    /// The run whose metrics are reported.
    pub fn config(&self, steps: u64, seed: u64, instrument: Instrument) -> RunConfig {
        RunConfig {
            problem: self.problem,
            space: self.space,
            ranks: self.ranks,
            warmup: self.warmup,
            steps,
            seed,
            instrument,
        }
    }

    /// The plain single-threaded run of the same problem and step counts:
    /// the denominator of `parallel_efficiency` and the reference state of
    /// the correctness checks.
    pub fn baseline(&self, steps: u64, seed: u64) -> RunConfig {
        RunConfig {
            space: SpaceKind::Serial,
            ranks: 1,
            ..self.config(steps, seed, Instrument::Clock)
        }
    }
}
