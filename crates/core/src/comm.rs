//! Ghost atoms and forward/reverse communication behind the [`Comm`]
//! abstraction.
//!
//! In LAMMPS, atoms near sub-domain faces are replicated on neighboring
//! ranks (or across periodic boundaries) as *ghost atoms*. Every
//! timestep, positions are pushed owner → ghost ("forward
//! communication") and, with `newton on`, forces accumulated on ghosts
//! are pushed back ghost → owner ("reverse communication"). §4.1: using
//! Newton's third law for ghosts "reduces computation but increases the
//! amount of communication required".
//!
//! The [`Comm`] trait abstracts the four exchange operations the
//! timestep loop needs (border/ghost construction, forward, reverse,
//! and per-atom scalar forwarding) plus the collective reductions, so
//! `Simulation::run` drives single- and multi-rank runs through the
//! same code path (see `docs/comm.md` for the full contract):
//!
//! * [`SingleRankComm`] — every ghost is a periodic image of a local
//!   atom; no messages ever move.
//! * [`brick::BrickComm`] — a simulated-MPI brick decomposition where
//!   ranks run as threads and exchange typed messages over per-edge
//!   channels. How the messages move is behind the `Transport` seam:
//!   `transport.rs` holds the channel mesh and the envelope format,
//!   `reliable.rs` the fault injection and recovery that wraps it when
//!   a run sets `RunSpec::fault`.

use crate::atom::AtomData;
use crate::domain::Domain;
use crate::sim::System;

pub mod balance;
pub mod brick;
pub mod fault;
mod reliable;
mod transport;

pub use balance::{BalancePolicy, BalanceWeight};
pub use fault::{CommError, FaultConfig, FaultKind, FaultPlan, FaultStats, RetryPolicy};

/// Which communication layer a run uses — the driver-level knob of the
/// unified [`crate::driver::RunSpec`] API (`spec.comm(...)`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CommSpec {
    /// In-process single rank ([`SingleRankComm`]): no messages move.
    /// Bit-for-bit the classic `Simulation::run` path.
    #[default]
    Single,
    /// Brick-decomposed rank-parallel run on `ranks` simulated MPI
    /// ranks ([`brick::BrickComm`]), optionally rebalancing the brick
    /// cut planes under the given policy.
    Brick {
        ranks: usize,
        balance: Option<BalancePolicy>,
    },
}

/// Ghost bookkeeping: ghost row `nlocal + g` is a copy of `owner[g]`
/// displaced by `shift[g]`.
#[derive(Debug, Clone, Default)]
pub struct GhostMap {
    pub owner: Vec<usize>,
    pub shift: Vec<[f64; 3]>,
    /// Ghost cutoff used to build this map.
    pub cutghost: f64,
}

impl GhostMap {
    pub fn nghost(&self) -> usize {
        self.owner.len()
    }
}

/// Build periodic-image ghosts for all owned atoms within `cutghost` of
/// a periodic face, resize the atom arrays, and fill the ghost rows.
/// Owned positions must already be wrapped into the box.
///
/// Panics if the box is smaller than `2 × cutghost` in any direction
/// (the minimum-image requirement; LAMMPS raises the same error).
pub fn build_ghosts(atoms: &mut AtomData, domain: &Domain, cutghost: f64) -> GhostMap {
    let mut map = GhostMap::default();
    build_ghosts_into(atoms, domain, cutghost, &mut map);
    map
}

/// [`build_ghosts`] refilling an existing map in place, reusing the
/// owner/shift buffer capacity (no steady-state allocation across
/// rebuilds once the high-water ghost count has been reached).
///
/// Debug builds verify the documented precondition that owned positions
/// are already wrapped into the box — migration paths that drift atoms
/// across brick faces must wrap *before* building borders, or ghost
/// images would be double-shifted.
pub fn build_ghosts_into(atoms: &mut AtomData, domain: &Domain, cutghost: f64, map: &mut GhostMap) {
    let l = domain.lengths();
    for (k, &lk) in l.iter().enumerate() {
        assert!(
            lk >= 2.0 * cutghost,
            "box length {lk} in dim {k} smaller than 2*cutghost = {}",
            2.0 * cutghost
        );
    }
    let nlocal = atoms.nlocal;
    debug_assert!(
        (0..nlocal).all(|i| domain.contains(&atoms.pos(i))),
        "build_ghosts precondition violated: owned positions must be wrapped into the box"
    );
    map.owner.clear();
    map.shift.clear();
    map.cutghost = cutghost;
    {
        let xh = atoms.x.h_view();
        for i in 0..nlocal {
            let p = [xh.at([i, 0]), xh.at([i, 1]), xh.at([i, 2])];
            // Each dim can contribute a +L or -L image (not both, since
            // L >= 2*cut). 0 = none, ±1 = shift direction.
            let mut opts = [[0i8; 2]; 3];
            let mut nopts = [1usize; 3];
            for k in 0..3 {
                opts[k][0] = 0;
                if p[k] < domain.lo[k] + cutghost {
                    opts[k][1] = 1;
                    nopts[k] = 2;
                } else if p[k] >= domain.hi[k] - cutghost {
                    opts[k][1] = -1;
                    nopts[k] = 2;
                }
            }
            for a in 0..nopts[0] {
                for b in 0..nopts[1] {
                    for c in 0..nopts[2] {
                        if a == 0 && b == 0 && c == 0 {
                            continue; // the original atom
                        }
                        map.owner.push(i);
                        map.shift.push([
                            opts[0][a] as f64 * l[0],
                            opts[1][b] as f64 * l[1],
                            opts[2][c] as f64 * l[2],
                        ]);
                    }
                }
            }
        }
    }
    let nghost = map.nghost();
    atoms.resize_all(nlocal + nghost, nlocal);
    atoms.nghost = nghost;
    copy_ghost_metadata(atoms, map);
    forward_positions(atoms, map);
}

/// Fill the ghost rows' metadata (type, charge, tag) from their owner
/// rows; positions follow through [`forward_positions`]. Copies in
/// place, so a rebuild allocates nothing here.
pub fn copy_ghost_metadata(atoms: &mut AtomData, map: &GhostMap) {
    fn copy<T: Copy>(view: &mut lkk_kokkos::View<T, 1>, nlocal: usize, owner: &[usize]) {
        for (g, &o) in owner.iter().enumerate() {
            let v = view.at([o]);
            view.set([nlocal + g], v);
        }
    }
    let nlocal = atoms.nlocal;
    copy(atoms.typ.h_view_mut(), nlocal, &map.owner);
    copy(atoms.q.h_view_mut(), nlocal, &map.owner);
    copy(atoms.tag.h_view_mut(), nlocal, &map.owner);
}

/// Forward communication: refresh ghost positions from their owners.
pub fn forward_positions(atoms: &mut AtomData, map: &GhostMap) {
    let nlocal = atoms.nlocal;
    let xh = atoms.x.h_view_mut();
    for g in 0..map.nghost() {
        let o = map.owner[g];
        for k in 0..3 {
            let v = xh.at([o, k]) + map.shift[g][k];
            xh.set([nlocal + g, k], v);
        }
    }
}

/// Reverse communication: fold ghost forces back into their owners and
/// zero the ghost rows. Required for half neighbor lists with
/// `newton on`; a full-list `newton off` run never accumulates force on
/// ghosts and skips this entirely (§4.1 / Fig. 2b).
pub fn reverse_forces(atoms: &mut AtomData, map: &GhostMap) {
    let nlocal = atoms.nlocal;
    let fh = atoms.f.h_view_mut();
    for g in 0..map.nghost() {
        let o = map.owner[g];
        for k in 0..3 {
            let add = fh.at([nlocal + g, k]);
            let v = fh.at([o, k]) + add;
            fh.set([o, k], v);
            fh.set([nlocal + g, k], 0.0);
        }
    }
}

/// Cumulative message/byte counters of a [`Comm`] implementation.
/// All values are integers measured from actual exchanges, so they are
/// deterministic and baseline-diffable; a single-rank comm moves no
/// messages and reports zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Payload bytes of forward (position) exchanges.
    pub forward_bytes: u64,
    /// Non-empty forward messages.
    pub forward_msgs: u64,
    /// Payload bytes of reverse (force) exchanges.
    pub reverse_bytes: u64,
    /// Non-empty reverse messages.
    pub reverse_msgs: u64,
    /// Payload bytes of per-atom scalar forwards (e.g. EAM F′).
    pub scalar_bytes: u64,
    /// Non-empty scalar messages.
    pub scalar_msgs: u64,
    /// Payload bytes of atom migration.
    pub migrate_bytes: u64,
    /// Non-empty migration messages.
    pub migrate_msgs: u64,
    /// Payload bytes of border (ghost-list setup) exchanges.
    pub border_bytes: u64,
    /// Non-empty border messages.
    pub border_msgs: u64,
    /// Payload bytes of load-balance census exchanges.
    pub balance_bytes: u64,
    /// Load-balance census messages.
    pub balance_msgs: u64,
    /// Times the balancer actually moved the cut planes.
    pub rebalances: u64,
    /// Collective reductions performed (OR + SUM).
    pub allreduce_count: u64,
}

impl CommStats {
    /// Element-wise sum (for aggregating per-rank stats).
    pub fn add(&mut self, other: &CommStats) {
        self.forward_bytes += other.forward_bytes;
        self.forward_msgs += other.forward_msgs;
        self.reverse_bytes += other.reverse_bytes;
        self.reverse_msgs += other.reverse_msgs;
        self.scalar_bytes += other.scalar_bytes;
        self.scalar_msgs += other.scalar_msgs;
        self.migrate_bytes += other.migrate_bytes;
        self.migrate_msgs += other.migrate_msgs;
        self.border_bytes += other.border_bytes;
        self.border_msgs += other.border_msgs;
        self.balance_bytes += other.balance_bytes;
        self.balance_msgs += other.balance_msgs;
        self.rebalances += other.rebalances;
        self.allreduce_count += other.allreduce_count;
    }

    /// Total halo (forward + reverse + scalar) payload bytes.
    pub fn halo_bytes(&self) -> u64 {
        self.forward_bytes + self.reverse_bytes + self.scalar_bytes
    }

    /// Total halo (forward + reverse + scalar) messages.
    pub fn halo_msgs(&self) -> u64 {
        self.forward_msgs + self.reverse_msgs + self.scalar_msgs
    }
}

/// The communication contract `Simulation::run` is generic over.
///
/// Implementations own the ghost bookkeeping of the [`System`] they
/// serve: [`Comm::borders`] (re)builds `system.ghosts` / the ghost rows,
/// [`Comm::forward`] / [`Comm::reverse`] / [`Comm::forward_scalar`]
/// refresh them between rebuilds. Multi-rank implementations are
/// *collective*: every rank's driver must issue the same sequence of
/// calls, which `Simulation::run` guarantees by reducing the rebuild
/// decision through [`Comm::allreduce_or`]. See `docs/comm.md` for the
/// ordering and pooling contract.
///
/// Every exchange is fallible: instead of deadlocking on a stalled or
/// dead peer, implementations return a structured [`CommError`] and the
/// driver aborts the run with per-rank diagnostics (the graceful-
/// degradation contract of `docs/robustness.md`). Single-rank comms
/// never fail.
pub trait Comm: Send {
    /// Implementation name (for reports and `Debug`).
    fn name(&self) -> &'static str;

    /// Number of ranks participating in the exchange.
    fn nranks(&self) -> usize {
        1
    }

    /// This rank's index.
    fn rank(&self) -> usize {
        0
    }

    /// Rebuild-time exchange: wrap owned positions, migrate atoms that
    /// left this rank's sub-domain, and (re)build the ghost rows out to
    /// `cutghost`. Positions must be host-resident; the result is
    /// host-modified (the caller flushes the sync state).
    fn borders(&mut self, system: &mut System, cutghost: f64) -> Result<(), CommError>;

    /// Forward (position) exchange: refresh every ghost row from its
    /// owner. Host-side, like the rest of the exchange path.
    fn forward(&mut self, system: &mut System) -> Result<(), CommError>;

    /// Reverse (force) exchange: fold ghost-row forces back into their
    /// owners and zero the ghost rows.
    fn reverse(&mut self, system: &mut System) -> Result<(), CommError>;

    /// Forward a per-atom scalar (length `nall`) owner → ghost; used by
    /// styles with intermediate per-atom state (EAM's F′(ρ), Fig. 1).
    fn forward_scalar(&mut self, system: &mut System, values: &mut [f64]) -> Result<(), CommError>;

    /// Collective OR (the global rebuild decision).
    fn allreduce_or(&mut self, flag: bool) -> Result<bool, CommError> {
        Ok(flag)
    }

    /// Collective sum, combined in rank order so every rank computes a
    /// bitwise-identical result.
    fn allreduce_sum(&mut self, value: f64) -> Result<f64, CommError> {
        Ok(value)
    }

    /// Drain in-flight traffic so every peer can shut down cleanly.
    /// Only meaningful under fault injection (a dropped final-phase
    /// message must be retransmitted before its sender exits); a no-op
    /// everywhere else.
    fn quiesce(&mut self) -> Result<(), CommError> {
        Ok(())
    }

    /// Cumulative exchange counters.
    fn stats(&self) -> CommStats {
        CommStats::default()
    }

    /// Cumulative fault-injection / recovery counters (all zero unless
    /// a fault plan is installed; see [`fault`]).
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }

    /// Heap growths of the persistent message-buffer pool since
    /// construction (0 in steady state; see `docs/performance.md`).
    fn grow_count(&self) -> u64 {
        0
    }

    /// Cumulative `[halo, migrate]` wall-clock seconds spent inside
    /// [`Comm::borders`] (advisory, like all wall-clock).
    fn phase_seconds(&self) -> [f64; 2] {
        [0.0, 0.0]
    }

    /// Advisory work hint for [`BalanceWeight::PairTime`]: cumulative
    /// pair-force seconds this rank has measured. The driver refreshes
    /// it before every `borders`; implementations without a balancer
    /// ignore it.
    fn note_work(&mut self, _seconds: f64) {}

    /// Peak owned-atom count (`nlocal`) this comm has observed across
    /// migrations — the max-over-run census behind
    /// `MultiRankRun::atom_imbalance`. 0 when the implementation does
    /// not migrate atoms.
    fn max_owned(&self) -> usize {
        0
    }
}

impl std::fmt::Debug for dyn Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Comm({})", self.name())
    }
}

/// The single-rank [`Comm`]: every ghost is a periodic image of a local
/// atom, so "exchange" is a host-side copy through [`GhostMap`] and the
/// collectives are identities. This is bit-for-bit the pre-`Comm`
/// behavior of the driver (the committed perf baselines depend on it).
#[derive(Debug, Default)]
pub struct SingleRankComm;

impl Comm for SingleRankComm {
    fn name(&self) -> &'static str {
        "single"
    }

    fn borders(&mut self, system: &mut System, cutghost: f64) -> Result<(), CommError> {
        system.atoms.wrap_positions(&system.domain);
        let mut map = std::mem::take(&mut system.ghosts);
        build_ghosts_into(&mut system.atoms, &system.domain, cutghost, &mut map);
        system.ghosts = map;
        Ok(())
    }

    fn forward(&mut self, system: &mut System) -> Result<(), CommError> {
        forward_positions(&mut system.atoms, &system.ghosts);
        Ok(())
    }

    fn reverse(&mut self, system: &mut System) -> Result<(), CommError> {
        reverse_forces(&mut system.atoms, &system.ghosts);
        Ok(())
    }

    fn forward_scalar(&mut self, system: &mut System, values: &mut [f64]) -> Result<(), CommError> {
        let nlocal = system.atoms.nlocal;
        for (g, &owner) in system.ghosts.owner.iter().enumerate() {
            values[nlocal + g] = values[owner];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corner_system() -> (AtomData, Domain) {
        // One atom near a corner: gets 7 images. One in the middle: none.
        let atoms = AtomData::from_positions(&[[0.5, 0.5, 0.5], [5.0, 5.0, 5.0]]);
        (atoms, Domain::cubic(10.0))
    }

    #[test]
    fn corner_atom_gets_seven_images() {
        let (mut atoms, domain) = corner_system();
        let map = build_ghosts(&mut atoms, &domain, 2.0);
        assert_eq!(map.nghost(), 7);
        assert_eq!(atoms.nall(), 9);
        assert!(map.owner.iter().all(|&o| o == 0));
        // All images are outside the primary box but within cut of it.
        let xh = atoms.x.h_view();
        for g in 0..7 {
            let p = [xh.at([2 + g, 0]), xh.at([2 + g, 1]), xh.at([2 + g, 2])];
            assert!(!domain.contains(&p));
            // Image of the corner atom: each coordinate 0.5 or 10.5.
            for c in p {
                assert!((c - 0.5).abs() < 1e-12 || (c - 10.5).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn face_atom_gets_one_image() {
        let mut atoms = AtomData::from_positions(&[[9.5, 5.0, 5.0]]);
        let domain = Domain::cubic(10.0);
        let map = build_ghosts(&mut atoms, &domain, 2.0);
        assert_eq!(map.nghost(), 1);
        let p = atoms.pos(1);
        assert!((p[0] - (-0.5)).abs() < 1e-12);
    }

    #[test]
    fn ghost_metadata_copied() {
        let mut atoms = AtomData::from_positions(&[[0.5, 5.0, 5.0]]);
        atoms.mass = vec![1.0, 2.0];
        atoms.typ.h_view_mut().set([0], 1);
        atoms.q.h_view_mut().set([0], -0.3);
        let domain = Domain::cubic(10.0);
        build_ghosts(&mut atoms, &domain, 2.0);
        assert_eq!(atoms.typ.h_view().at([1]), 1);
        assert_eq!(atoms.q.h_view().at([1]), -0.3);
        assert_eq!(atoms.tag.h_view().at([1]), 1);
    }

    #[test]
    fn forward_updates_after_motion() {
        let (mut atoms, domain) = corner_system();
        let map = build_ghosts(&mut atoms, &domain, 2.0);
        atoms.x.h_view_mut().set([0, 0], 0.7);
        forward_positions(&mut atoms, &map);
        let xh = atoms.x.h_view();
        // Every image's x-coordinate is 0.7 or 10.7 now.
        for g in 0..map.nghost() {
            let x0 = xh.at([2 + g, 0]);
            assert!((x0 - 0.7).abs() < 1e-12 || (x0 - 10.7).abs() < 1e-12);
        }
    }

    #[test]
    fn reverse_folds_ghost_forces() {
        let (mut atoms, domain) = corner_system();
        let map = build_ghosts(&mut atoms, &domain, 2.0);
        let nlocal = atoms.nlocal;
        {
            let fh = atoms.f.h_view_mut();
            for g in 0..map.nghost() {
                fh.set([nlocal + g, 0], 1.0);
            }
        }
        reverse_forces(&mut atoms, &map);
        assert_eq!(atoms.f.h_view().at([0, 0]), 7.0);
        assert_eq!(atoms.f.h_view().at([nlocal, 0]), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must be wrapped")]
    fn unwrapped_positions_are_rejected() {
        // The documented precondition is enforced, not assumed: an atom
        // left outside the box (e.g. migrated across a brick face but
        // not wrapped) would get double-shifted ghost images.
        let mut atoms = AtomData::from_positions(&[[12.5, 5.0, 5.0]]);
        let domain = Domain::cubic(10.0);
        build_ghosts(&mut atoms, &domain, 2.0);
    }

    #[test]
    fn build_into_reuses_buffers_and_matches_fresh_build() {
        let (mut a, domain) = corner_system();
        let fresh = build_ghosts(&mut a, &domain, 2.0);
        let (mut b, _) = corner_system();
        let mut map = GhostMap::default();
        build_ghosts_into(&mut b, &domain, 2.0, &mut map);
        assert_eq!(map.owner, fresh.owner);
        assert_eq!(map.shift, fresh.shift);
        let cap = map.owner.capacity();
        // Refill in place: same result, no reallocation.
        build_ghosts_into(&mut b, &domain, 2.0, &mut map);
        assert_eq!(map.owner, fresh.owner);
        assert_eq!(map.owner.capacity(), cap);
    }

    #[test]
    fn single_rank_comm_matches_free_functions() {
        use crate::sim::System;
        let (atoms, domain) = corner_system();
        let mut system = System::new(atoms, domain, lkk_kokkos::Space::Serial);
        let mut comm = SingleRankComm;
        comm.borders(&mut system, 2.0).unwrap();
        assert_eq!(system.ghosts.nghost(), 7);
        assert_eq!(comm.nranks(), 1);
        assert!(!comm.allreduce_or(false).unwrap() && comm.allreduce_or(true).unwrap());
        assert_eq!(comm.allreduce_sum(2.5).unwrap(), 2.5);
        assert_eq!(comm.stats(), CommStats::default());
        assert_eq!(comm.fault_stats(), FaultStats::default());
        // forward_scalar copies owner values into ghost slots.
        let mut vals = vec![0.0; system.atoms.nall()];
        vals[0] = 3.25;
        comm.forward_scalar(&mut system, &mut vals).unwrap();
        for g in 0..system.ghosts.nghost() {
            assert_eq!(vals[system.atoms.nlocal + g], 3.25);
        }
    }

    #[test]
    #[should_panic]
    fn too_small_box_is_rejected() {
        let mut atoms = AtomData::from_positions(&[[0.5, 0.5, 0.5]]);
        let domain = Domain::cubic(3.0);
        build_ghosts(&mut atoms, &domain, 2.0);
    }
}
