//! Facade crate re-exporting the full `lammps-kk` stack.
pub use lkk_core as core;
pub use lkk_gpusim as gpusim;
pub use lkk_kokkos as kokkos;
pub use lkk_machine as machine;
pub use lkk_reaxff as reaxff;
pub use lkk_snap as snap;
pub use lkk_trace as trace;

/// One-stop import for examples and downstream users: the `lkk-core`
/// prelude (atoms, lattices, pair styles, the single-rank
/// [`core::sim::SimulationBuilder`], and the unified `RunSpec`/`CommSpec`
/// driver for single- and multi-rank runs) plus the
/// commonly paired pieces from the sibling crates — the machine-level
/// potentials, the cost-model architectures, and the trace collector.
pub mod prelude {
    pub use lkk_core::prelude::*;
    pub use lkk_gpusim::GpuArch;
    pub use lkk_reaxff::{PairReaxff, ReaxParams};
    pub use lkk_snap::{PairSnap, SnapParams};
    pub use lkk_trace::TraceCollector;
}
