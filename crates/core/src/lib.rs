//! `lkk-core`: a LAMMPS-like molecular dynamics engine.
//!
//! This crate rebuilds the parts of LAMMPS that the paper's §2-§3
//! describe, on top of the `lkk-kokkos` portability layer:
//!
//! * [`atom`] — struct-of-arrays atom storage held in `DualView`s with
//!   per-field modify/sync masks (§3.2's datamask flags).
//! * [`domain`] — orthogonal periodic simulation boxes.
//! * [`lattice`] — fcc/bcc/sc structure generation and Maxwell-Boltzmann
//!   velocity initialization.
//! * [`neighbor`] — binned half/full neighbor lists stored in 2-D views
//!   whose layout adapts to the execution space (§4.1).
//! * [`comm`] — ghost-atom construction, forward (position) and reverse
//!   (force) communication for periodic boundaries.
//! * [`decomp`] — the simulated-MPI brick domain decomposition: ranks
//!   run as threads and exchange halo data through channels.
//! * [`pair`] — the `PairStyle` trait and the generic `PairKokkos`
//!   two-body driver (§4.1), with the Lennard-Jones and Morse potentials
//!   as instances.
//! * [`fix`] / [`compute`] — time-integration and diagnostic styles
//!   (`nve`, `langevin`, temperature, kinetic/potential energy).
//! * [`style`] — the command-name → factory registry with `/kk`,
//!   `/kk/host`, `/kk/device` suffix resolution (§3.1).
//! * [`input`] — the input-script command parser (§2.1).
//! * [`sim`] — the time-stepping driver and thermo output.
//! * [`driver`] — the rank driver: `RunSpec::run` runs one simulation
//!   per rank and gathers a `MultiRankRun`.

pub mod atom;
pub mod comm;
pub mod compute;
pub mod data_io;
pub mod decomp;
pub mod domain;
pub mod driver;
pub mod dump;
pub mod fix;
pub mod input;
pub mod lattice;
pub mod neighbor;
pub mod pair;
pub mod sim;
pub mod style;
pub mod switch;
pub mod units;

pub use atom::{AtomData, Mask};
pub use domain::Domain;
pub use neighbor::{NeighborList, NeighborSettings};
pub use pair::{PairResults, PairStyle};
pub use sim::{Simulation, SimulationBuilder, System};
pub use style::StyleRegistry;

/// The stable public surface in one import: everything an example or
/// integration test needs to stand up and run a simulation, without
/// reaching into deep module paths.
pub mod prelude {
    pub use crate::atom::{AtomData, AtomRecord, Mask};
    pub use crate::comm::brick::BrickComm;
    pub use crate::comm::{
        BalancePolicy, BalanceWeight, Comm, CommError, CommSpec, CommStats, FaultConfig, FaultPlan,
        FaultStats, GhostMap, RetryPolicy, SingleRankComm,
    };
    pub use crate::compute;
    pub use crate::decomp::BrickDecomp;
    pub use crate::domain::Domain;
    pub use crate::driver::{CommFailure, MultiRankRun, RankAtomState, RunSpec};
    pub use crate::fix::{Fix, FixLangevin, FixNve};
    pub use crate::lattice::{create_velocities, Lattice, LatticeKind};
    pub use crate::neighbor::{NeighborList, NeighborSettings};
    pub use crate::pair::eam::{EamParams, PairEam};
    pub use crate::pair::lj::LjCut;
    pub use crate::pair::{PairKokkos, PairKokkosOptions, PairResults, PairStyle, TwoBody};
    pub use crate::sim::{Simulation, SimulationBuilder, System, ThermoRow, Timings};
    pub use crate::units::Units;
    pub use lkk_kokkos::Space;
}
