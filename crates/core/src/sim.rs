//! The simulation driver: owns the system, styles, and neighbor state,
//! and advances the velocity-Verlet timestep loop with
//! rebuild-on-displacement neighboring and forward/reverse ghost
//! communication — the `run` command of §2.1.

use crate::atom::{AtomData, Mask};
use crate::comm::{Comm, CommError, FaultStats, GhostMap, SingleRankComm};
use crate::compute;
use crate::domain::Domain;
use crate::fix::Fix;
use crate::neighbor::{max_displacement_sq, NeighborList, NeighborSettings};
use crate::pair::{PairResults, PairStyle};
use crate::units::Units;
use lkk_kokkos::{profile, Space};

/// The simulated physical system: atoms in a periodic box, bound to an
/// execution space and a communication layer.
#[derive(Debug)]
pub struct System {
    pub atoms: AtomData,
    /// The *global* simulation box (identical on every rank of a
    /// multi-rank run; sub-domain bounds live inside the [`Comm`]).
    pub domain: Domain,
    pub space: Space,
    pub units: Units,
    pub ghosts: GhostMap,
    /// The communication layer (ghost construction + exchanges).
    /// `None` only transiently while an exchange borrows the system.
    pub comm: Option<Box<dyn Comm>>,
    /// Deferred comm failure from an exchange invoked through an
    /// infallible hook (e.g. [`System::forward_ghost_scalar`] inside a
    /// pair style's `compute`); the driver surfaces it at the next
    /// fallible boundary instead of losing it.
    pub comm_error: Option<CommError>,
}

impl System {
    pub fn new(atoms: AtomData, domain: Domain, space: Space) -> Self {
        System {
            atoms,
            domain,
            space,
            units: Units::lj(),
            ghosts: GhostMap::default(),
            comm: Some(Box::new(SingleRankComm)),
            comm_error: None,
        }
    }

    pub fn with_units(mut self, units: Units) -> Self {
        self.units = units;
        self
    }

    /// Run `f` with the comm layer temporarily taken out of the system
    /// (so it can mutably borrow both).
    pub fn with_comm_taken<R>(&mut self, f: impl FnOnce(&mut System, &mut dyn Comm) -> R) -> R {
        let mut comm = self.comm.take().expect("comm layer is already borrowed");
        let result = f(self, comm.as_mut());
        self.comm = Some(comm);
        result
    }

    /// Forward a per-atom scalar (length `nall`) owner → ghost through
    /// the comm layer — the hook pair styles with intermediate per-atom
    /// state (EAM's F′(ρ)) call from inside `compute`.
    ///
    /// Pair styles have no error channel, so a comm failure here is
    /// *deferred* into [`System::comm_error`]: the exchange that failed
    /// has already drained its retry budget, and once the error is
    /// latched every later exchange this step is skipped (the data is
    /// garbage anyway — the driver aborts before it is observable).
    pub fn forward_ghost_scalar(&mut self, values: &mut [f64]) {
        if self.comm_error.is_some() {
            return;
        }
        if let Err(err) = self.with_comm_taken(|system, comm| comm.forward_scalar(system, values)) {
            self.comm_error = Some(err);
        }
    }
}

/// One thermo output row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermoRow {
    pub step: u64,
    pub temp: f64,
    pub e_pair: f64,
    pub e_kinetic: f64,
    pub e_total: f64,
    pub pressure: f64,
}

/// Wall-clock breakdown of a run (the timing summary LAMMPS prints):
/// seconds spent in each phase of the timestep loop. Phases are timed
/// through the `lkk_kokkos::profile` region layer ("step/integrate",
/// "step/neighbor", "step/pair", with comm nested under the enclosing
/// phase), so any registered [`lkk_gpusim::ProfileSubscriber`] observes
/// the same phase boundaries this summary reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    pub pair: f64,
    pub neighbor: f64,
    pub comm: f64,
    pub integrate: f64,
    /// Halo (border/ghost) construction seconds inside the comm layer —
    /// a subset of `neighbor`, not added to `total()`.
    pub halo: f64,
    /// Atom-migration seconds inside the comm layer — also a subset of
    /// `neighbor`.
    pub migrate: f64,
    pub steps: u64,
}

impl Timings {
    pub fn total(&self) -> f64 {
        self.pair + self.neighbor + self.comm + self.integrate
    }

    /// Render the LAMMPS-style breakdown table.
    pub fn summary(&self) -> String {
        let t = self.total().max(1e-300);
        let mut text = format!(
            "Loop time breakdown over {} steps ({:.3} s):\n  Pair     {:>9.3} s ({:>5.1}%)\n  Neigh    {:>9.3} s ({:>5.1}%)\n  Comm     {:>9.3} s ({:>5.1}%)\n  Integrate{:>9.3} s ({:>5.1}%)",
            self.steps,
            t,
            self.pair,
            100.0 * self.pair / t,
            self.neighbor,
            100.0 * self.neighbor / t,
            self.comm,
            100.0 * self.comm / t,
            self.integrate,
            100.0 * self.integrate / t,
        );
        if self.halo > 0.0 || self.migrate > 0.0 {
            text.push_str(&format!(
                "\n  (neigh: halo {:>9.3} s, migrate {:>9.3} s)",
                self.halo, self.migrate
            ));
        }
        text
    }
}

/// A running simulation: system + pair style + fixes + neighbor state.
pub struct Simulation {
    pub system: System,
    pub pair: Box<dyn PairStyle>,
    pub fixes: Vec<Box<dyn Fix>>,
    pub settings: NeighborSettings,
    pub dt: f64,
    pub thermo_every: usize,
    pub verbose: bool,
    /// Appendix C.1's `-pk kokkos pair/only on`: keep the pair style on
    /// the device but "reverse offload" integration (and comm) to the
    /// host, amortizing launch latencies at small per-GPU problem
    /// sizes. The DualView sync machinery moves the data automatically
    /// (and the transfer counters in `lkk_kokkos::profile` price it).
    pub pair_only: bool,
    pub step: u64,
    /// Energy and virial of the most recent force evaluation that
    /// tallied them: set-up, every thermo step, and the last step of
    /// each [`Simulation::run`]/[`Simulation::try_run`] call (LAMMPS'
    /// `ev_set` rule). Steps in between compute forces only.
    pub last_results: PairResults,
    pub thermo: Vec<ThermoRow>,
    pub rebuild_count: u64,
    /// Cumulative wall-clock phase breakdown (LAMMPS' loop summary).
    pub timings: Timings,
    /// Spatially sort owned atoms every this many neighbor rebuilds
    /// (LAMMPS' `atom_modify sort`), improving cache locality of the
    /// pair kernels. `0` (the default) disables sorting: reordering
    /// atoms permutes force-accumulation order, which perturbs
    /// trajectories at float precision — the committed perf-smoke
    /// counter baselines are recorded unsorted.
    pub sort_every: usize,
    list: Option<NeighborList>,
    x_at_build: Vec<[f64; 3]>,
}

impl Simulation {
    /// Wire a system to a pair style with `fix nve` and default
    /// neighboring (0.3 skin, list style chosen by the pair style).
    pub fn new(system: System, pair: Box<dyn PairStyle>) -> Self {
        let settings = NeighborSettings::new(pair.cutoff(), 0.3, pair.wants_half_list());
        Simulation {
            system,
            pair,
            fixes: vec![Box::new(crate::fix::FixNve)],
            settings,
            dt: 0.005,
            thermo_every: 0,
            verbose: false,
            pair_only: false,
            step: 0,
            last_results: PairResults::default(),
            thermo: Vec::new(),
            rebuild_count: 0,
            timings: Timings::default(),
            sort_every: 0,
            list: None,
            x_at_build: Vec::new(),
        }
    }

    /// Replace the fix list (e.g. to add a Langevin thermostat).
    pub fn with_fixes(mut self, fixes: Vec<Box<dyn Fix>>) -> Self {
        self.fixes = fixes;
        self
    }

    /// Current neighbor list, building on first use.
    pub fn neighbor_list(&mut self) -> &NeighborList {
        if self.list.is_none() {
            self.try_rebuild()
                .unwrap_or_else(|e| panic!("communication failed: {e}"));
        }
        self.list.as_ref().unwrap()
    }

    fn try_rebuild(&mut self) -> Result<(), CommError> {
        let space = self.system.space.clone();
        if self.sort_every > 0
            && self.rebuild_count > 0
            && (self.rebuild_count as usize).is_multiple_of(self.sort_every)
        {
            // Spatial sort permutes every per-atom field on the host;
            // ghosts and the list are rebuilt right below.
            self.system.atoms.sync(&Space::Serial, Mask::ALL);
            crate::neighbor::spatial_sort(
                &mut self.system.atoms,
                &self.system.domain,
                self.settings.cutneigh(),
            );
        }
        self.system.atoms.sync(&Space::Serial, Mask::X);
        let cutneigh = self.settings.cutneigh();
        // Report cumulative pair seconds before the exchange: the load
        // balancer's (advisory) PairTime weighting reads it.
        let pair_seconds = self.timings.pair;
        self.system.with_comm_taken(|system, comm| {
            comm.note_work(pair_seconds);
            comm.borders(system, cutneigh)
        })?;
        self.system.atoms.modified(&Space::Serial, Mask::ALL);
        self.system.atoms.sync(&space, Mask::X | Mask::TYPE);
        // Persistent list: refill the existing buffers in place.
        match &mut self.list {
            Some(list) => {
                list.rebuild(
                    &self.system.atoms,
                    &self.system.domain,
                    &self.settings,
                    &space,
                );
            }
            None => {
                self.list = Some(NeighborList::build(
                    &self.system.atoms,
                    &self.system.domain,
                    &self.settings,
                    &space,
                ));
            }
        }
        self.x_at_build.clear();
        self.x_at_build
            .extend((0..self.system.atoms.nlocal).map(|i| self.system.atoms.pos(i)));
        self.rebuild_count += 1;
        // Counter samples at every rebuild: timeline consumers plot
        // these as per-rank tracks (owned-atom drift is the load-
        // imbalance signal), metrics registries gauge/histogram them.
        // All values are deterministic counters.
        let atoms = &self.system.atoms;
        profile::note_counter(|| ("owned_atoms", atoms.nlocal as f64));
        profile::note_counter(|| ("ghost_atoms", atoms.nghost as f64));
        if let Some(list) = &self.list {
            profile::note_counter(|| ("neigh_pairs", list.total_pairs as f64));
            profile::note_counter(|| ("neigh_avg", list.avg_neighbors()));
        }
        Ok(())
    }

    /// Heap growths of the persistent neighbor-list buffers since the
    /// first build (0 once capacity has stabilized; see
    /// `docs/performance.md`).
    pub fn neighbor_grow_count(&self) -> u64 {
        self.list.as_ref().map_or(0, |l| l.grow_count())
    }

    fn needs_rebuild(&self) -> bool {
        match &self.list {
            None => true,
            Some(_) => {
                let half_skin = 0.5 * self.settings.skin;
                max_displacement_sq(
                    &self.system.atoms,
                    &self.x_at_build,
                    &self.system.domain,
                    &self.system.space,
                ) > half_skin * half_skin
            }
        }
    }

    /// Compute forces for the current configuration (including ghost
    /// refresh) and, with `eflag`, the energy/virial into
    /// `last_results`. Also surfaces a [`CommError`] deferred by a
    /// mid-compute exchange (EAM's scalar forward) through
    /// [`System::comm_error`].
    fn try_compute_forces(&mut self, eflag: bool) -> Result<(), CommError> {
        // Position changes since the last neighbor build flow to ghosts.
        {
            let comm_region = profile::begin_region("comm");
            self.system.atoms.sync(&Space::Serial, Mask::X);
            self.system
                .with_comm_taken(|system, comm| comm.forward(system))?;
            self.system.atoms.modified(&Space::Serial, Mask::X);
            self.timings.comm += comm_region.finish();
        }
        let list = self.list.as_ref().expect("neighbor list not built");
        let results = self.pair.compute(&mut self.system, list, eflag);
        if eflag {
            self.last_results = results;
        }
        if let Some(err) = self.system.comm_error.take() {
            return Err(err);
        }
        if self.pair.needs_reverse_comm() {
            let comm_region = profile::begin_region("comm");
            self.system.atoms.sync(&Space::Serial, Mask::F);
            self.system
                .with_comm_taken(|system, comm| comm.reverse(system))?;
            self.system.atoms.modified(&Space::Serial, Mask::F);
            self.timings.comm += comm_region.finish();
        }
        Ok(())
    }

    /// One-time setup: neighbor build + initial force evaluation.
    /// Panics on a comm failure, like [`Simulation::run`].
    pub fn setup(&mut self) {
        self.try_setup()
            .unwrap_or_else(|e| panic!("communication failed: {e}"));
    }

    fn try_setup(&mut self) -> Result<(), CommError> {
        if self.list.is_none() {
            self.try_rebuild()?;
            self.try_compute_forces(true)?;
            self.record_thermo();
        }
        Ok(())
    }

    /// Advance `nsteps` timesteps. Panicking wrapper over
    /// [`Simulation::try_run`] — the ergonomic entry point everywhere a
    /// comm failure is impossible (single rank) or fatal anyway.
    pub fn run(&mut self, nsteps: u64) {
        self.try_run(nsteps)
            .unwrap_or_else(|e| panic!("communication failed: {e}"));
    }

    /// Advance `nsteps` timesteps, returning the first [`CommError`]
    /// instead of panicking. On `Err` the simulation state is
    /// mid-step and must not be stepped further; the multi-rank driver
    /// tears the run down and reports a `CommFailure`.
    pub fn try_run(&mut self, nsteps: u64) -> Result<(), CommError> {
        self.try_setup()?;
        let device_space = self.system.space.clone();
        let integrate_space = if self.pair_only && device_space.is_device() {
            Space::Threads
        } else {
            device_space.clone()
        };
        for remaining in (0..nsteps).rev() {
            self.step += 1;
            self.timings.steps += 1;
            // Energy and virial only where someone reads them: thermo
            // steps, and the state a caller sees when this call returns.
            let thermo_step =
                self.thermo_every > 0 && self.step.is_multiple_of(self.thermo_every as u64);
            let eflag = thermo_step || remaining == 0;
            let dt = self.dt;
            let step_region = profile::begin_region("step");
            {
                let integrate_region = profile::begin_region("integrate");
                self.system.space = integrate_space.clone();
                for f in &mut self.fixes {
                    f.initial_integrate(&mut self.system, dt);
                }
                self.system.space = device_space.clone();
                self.timings.integrate += integrate_region.finish();
            }
            {
                let neighbor_region = profile::begin_region("neighbor");
                if self.step.is_multiple_of(self.settings.every as u64) {
                    self.system.atoms.sync(&Space::Serial, Mask::X);
                    // The rebuild decision is collective: every rank
                    // must agree or the exchange sequences desync.
                    let local = self.needs_rebuild();
                    let global = self
                        .system
                        .with_comm_taken(|_, comm| comm.allreduce_or(local));
                    match global {
                        Ok(true) => self.try_rebuild()?,
                        Ok(false) => {}
                        Err(err) => {
                            self.timings.neighbor += neighbor_region.finish();
                            return Err(err);
                        }
                    }
                }
                self.timings.neighbor += neighbor_region.finish();
            }
            {
                // Comm inside force computation is nested ("step/pair/comm")
                // and counted in both phases, as LAMMPS' breakdown does.
                let pair_region = profile::begin_region("pair");
                let forces = self.try_compute_forces(eflag);
                self.timings.pair += pair_region.finish();
                forces?;
            }
            {
                let integrate_region = profile::begin_region("integrate");
                let step = self.step;
                self.system.space = integrate_space.clone();
                for f in &mut self.fixes {
                    f.post_force(&mut self.system, dt, step);
                }
                for f in &mut self.fixes {
                    f.final_integrate(&mut self.system, dt);
                }
                self.system.space = device_space.clone();
                self.timings.integrate += integrate_region.finish();
            }
            drop(step_region);
            if thermo_step {
                self.record_thermo();
            }
        }
        if let Some(comm) = &self.system.comm {
            let [halo, migrate] = comm.phase_seconds();
            self.timings.halo = halo;
            self.timings.migrate = migrate;
        }
        if self.verbose && nsteps > 0 {
            println!("{}", self.timings.summary());
        }
        Ok(())
    }

    fn record_thermo(&mut self) {
        self.system.atoms.sync(&Space::Serial, Mask::V);
        let row = self.thermo_row();
        if self.verbose {
            if self.thermo.is_empty() {
                println!(
                    "{:>10} {:>12} {:>14} {:>14} {:>14} {:>12}",
                    "Step", "Temp", "E_pair", "E_kin", "TotEng", "Press"
                );
            }
            println!(
                "{:>10} {:>12.6} {:>14.8} {:>14.8} {:>14.8} {:>12.6}",
                row.step, row.temp, row.e_pair, row.e_kinetic, row.e_total, row.pressure
            );
        }
        self.thermo.push(row);
    }

    /// The current thermodynamic state.
    pub fn thermo_row(&self) -> ThermoRow {
        let atoms = &self.system.atoms;
        let units = &self.system.units;
        let temp = compute::temperature(atoms, units);
        let ke = compute::kinetic_energy(atoms, units);
        let e_pair = self.last_results.energy;
        ThermoRow {
            step: self.step,
            temp,
            e_pair,
            e_kinetic: ke,
            e_total: e_pair + ke,
            pressure: compute::pressure(
                atoms,
                units,
                &self.system.domain,
                self.last_results.virial,
            ),
        }
    }

    /// Total energy (pair + kinetic) of the current state. Syncs
    /// velocities back from the device if necessary.
    pub fn total_energy(&mut self) -> f64 {
        self.system.atoms.sync(&Space::Serial, Mask::V);
        self.thermo_row().e_total
    }

    /// Cumulative exchange counters of the comm layer.
    pub fn comm_stats(&self) -> crate::comm::CommStats {
        self.system
            .comm
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Heap growths of the comm layer's persistent message-buffer pool
    /// (0 in steady state; see `docs/performance.md`).
    pub fn comm_grow_count(&self) -> u64 {
        self.system.comm.as_ref().map_or(0, |c| c.grow_count())
    }

    /// Cumulative fault-injection / recovery counters of the comm layer
    /// (all zero unless a fault plan is installed).
    pub fn comm_fault_stats(&self) -> FaultStats {
        self.system
            .comm
            .as_ref()
            .map(|c| c.fault_stats())
            .unwrap_or_default()
    }
}

/// Fluent constructor for a single-rank [`Simulation`]:
///
/// ```
/// use lkk_core::prelude::*;
/// let atoms = AtomData::from_positions(&[[1.0, 1.0, 1.0], [2.5, 1.0, 1.0]]);
/// let mut sim = SimulationBuilder::new(atoms, Domain::cubic(10.0))
///     .pair(PairKokkos::new(LjCut::single_type(1.0, 1.0, 2.5), &Space::Serial))
///     .dt(0.002)
///     .thermo_every(10)
///     .build();
/// sim.run(5);
/// ```
///
/// Multi-rank runs go through [`crate::driver::RunSpec::run`], whose
/// factory builds each rank's `Simulation` with [`Simulation::new`].
pub struct SimulationBuilder {
    atoms: AtomData,
    domain: Domain,
    space: Space,
    units: Units,
    pair: Option<Box<dyn PairStyle>>,
    dt: Option<f64>,
    thermo_every: usize,
    verbose: bool,
    skin: Option<f64>,
}

impl SimulationBuilder {
    /// Start from atoms in a periodic box; everything else defaults
    /// (serial space, LJ units, `fix nve`, dt 0.005).
    pub fn new(atoms: AtomData, domain: Domain) -> Self {
        SimulationBuilder {
            atoms,
            domain,
            space: Space::Serial,
            units: Units::lj(),
            pair: None,
            dt: None,
            thermo_every: 0,
            verbose: false,
            skin: None,
        }
    }

    /// Execution space (serial, threads, or a simulated device).
    pub fn space(mut self, space: Space) -> Self {
        self.space = space;
        self
    }

    /// Unit system (`lj`, `metal`, `real`).
    pub fn units(mut self, units: Units) -> Self {
        self.units = units;
        self
    }

    /// The pair style (required).
    pub fn pair(mut self, pair: impl PairStyle + 'static) -> Self {
        self.pair = Some(Box::new(pair));
        self
    }

    /// Timestep size.
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = Some(dt);
        self
    }

    /// Thermo output interval (0 = off).
    pub fn thermo_every(mut self, every: usize) -> Self {
        self.thermo_every = every;
        self
    }

    /// Print thermo rows and the timing summary.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Neighbor skin distance (default 0.3).
    pub fn skin(mut self, skin: f64) -> Self {
        self.skin = Some(skin);
        self
    }

    /// Wire everything into a ready-to-run [`Simulation`].
    ///
    /// Panics if no pair style was set.
    pub fn build(self) -> Simulation {
        let pair = self
            .pair
            .expect("SimulationBuilder: a pair style is required");
        let system = System::new(self.atoms, self.domain, self.space).with_units(self.units);
        let mut sim = Simulation::new(system, pair);
        if let Some(dt) = self.dt {
            sim.dt = dt;
        }
        if let Some(skin) = self.skin {
            sim.settings.skin = skin;
        }
        sim.thermo_every = self.thermo_every;
        sim.verbose = self.verbose;
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{create_velocities, Lattice, LatticeKind};
    use crate::pair::lj::LjCut;
    use crate::pair::PairKokkos;

    fn lj_melt_sim(n: usize, space: Space, temp: f64) -> Simulation {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut atoms = AtomData::from_positions(&lat.positions(n, n, n));
        let units = Units::lj();
        create_velocities(&mut atoms, &units, temp, 87287);
        let system = System::new(atoms, lat.domain(n, n, n), space.clone());
        let pair = PairKokkos::new(LjCut::single_type(1.0, 1.0, 2.5), &space);
        Simulation::new(system, Box::new(pair))
    }

    #[test]
    fn nve_conserves_energy() {
        let mut sim = lj_melt_sim(4, Space::Threads, 1.44);
        sim.setup();
        let n = sim.system.atoms.nlocal as f64;
        // The Verlet total-energy error oscillates with the
        // discretization (amplitude ~1e-3·N for this melt at dt = 0.005,
        // any velocity seed), and the t=0 energy carries a one-time
        // shadow-Hamiltonian offset from the perfect-lattice start — so
        // neither an end-point sample nor a mean-vs-E(0) comparison
        // measures conservation. Compare the time-averaged energy of the
        // first and second halves of the run: secular drift would
        // separate them; the oscillation averages out below 1e-4/atom.
        let mut half_mean = [0.0f64; 2];
        for block in 0..10 {
            sim.run(10);
            half_mean[block / 5] += sim.total_energy() / 5.0;
        }
        let drift = ((half_mean[1] - half_mean[0]) / n).abs();
        assert!(drift < 1e-4, "per-atom secular drift {drift}");
    }

    #[test]
    fn melt_actually_melts() {
        // Starting from a perfect lattice at T=1.44, kinetic and
        // potential energy exchange: temperature drops towards ~0.7.
        let mut sim = lj_melt_sim(4, Space::Threads, 1.44);
        sim.thermo_every = 50;
        sim.run(150);
        let t_final = sim.thermo.last().unwrap().temp;
        assert!(t_final < 1.1, "T stayed at {t_final}");
        assert!(t_final > 0.3);
        assert!(sim.rebuild_count >= 2, "no neighbor rebuilds happened");
    }

    #[test]
    fn energy_only_when_read_changes_no_bit() {
        // `run(50)` tallies energy and virial on thermo steps and its
        // last step; 50 × `run(1)` tallies on every step (each is a last
        // step). Same forces either way, so same trajectory, thermo rows
        // and final results, to the bit — on a half list (threads) and a
        // full one (device).
        for space in [Space::Threads, Space::device(lkk_gpusim::GpuArch::h100())] {
            let mut batched = lj_melt_sim(4, space.clone(), 1.44);
            let mut stepped = lj_melt_sim(4, space, 1.44);
            batched.thermo_every = 10;
            stepped.thermo_every = 10;
            batched.run(50);
            for _ in 0..50 {
                stepped.run(1);
            }
            assert_eq!(batched.thermo.len(), 6, "set-up row + 5 thermo steps");
            assert_eq!(batched.thermo, stepped.thermo);
            assert_eq!(batched.last_results, stepped.last_results);
            assert_ne!(batched.last_results, PairResults::default());
            for sim in [&mut batched, &mut stepped] {
                sim.system.atoms.sync(&Space::Serial, Mask::ALL);
            }
            for i in 0..batched.system.atoms.nlocal {
                let (a, b) = (&batched.system.atoms, &stepped.system.atoms);
                assert_eq!(a.pos(i).map(f64::to_bits), b.pos(i).map(f64::to_bits));
                for (va, vb) in [(&a.v, &b.v), (&a.f, &b.f)] {
                    assert_eq!(
                        va.h_view().get3(i).map(f64::to_bits),
                        vb.h_view().get3(i).map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn sorted_run_is_permutation_equivalent() {
        // `sort_every` only permutes atom order: matched by tag, the
        // sorted and unsorted trajectories must agree up to the float
        // noise introduced by the permuted accumulation order.
        let mut plain = lj_melt_sim(4, Space::Serial, 1.0);
        let mut sorted = lj_melt_sim(4, Space::Serial, 1.0);
        sorted.sort_every = 1;
        plain.run(60);
        sorted.run(60);
        assert!(
            sorted.rebuild_count >= 2,
            "no rebuild after setup — spatial sort never ran"
        );
        #[expect(
            clippy::disallowed_types,
            reason = "lookup-only test map, never iterated: hash order cannot leak"
        )]
        let pos_by_tag = |sim: &Simulation| -> std::collections::HashMap<i64, [f64; 3]> {
            let tags = sim.system.atoms.tag.h_view();
            (0..sim.system.atoms.nlocal)
                .map(|i| (tags.at([i]), sim.system.atoms.pos(i)))
                .collect()
        };
        let pa = pos_by_tag(&plain);
        let pb = pos_by_tag(&sorted);
        assert_eq!(pa.len(), pb.len(), "sorting lost or duplicated atoms");
        for (tag, xa) in &pa {
            let xb = pb.get(tag).expect("tag missing after sort");
            for k in 0..3 {
                assert!(
                    (xa[k] - xb[k]).abs() < 1e-6,
                    "tag {tag} diverged: {xa:?} vs {xb:?}"
                );
            }
        }
        let de = (plain.total_energy() - sorted.total_energy()).abs();
        assert!(de < 1e-6, "energy diverged by {de}");
    }

    #[test]
    fn steady_state_reuses_pooled_buffers() {
        // Acceptance gate for the hot-path pooling: once capacities have
        // stabilized, repeated rebuilds and force calls must not grow the
        // persistent neighbor or scatter buffers (pool-hit statistics as
        // a stand-in for a counting allocator; see docs/performance.md).
        let mut sim = lj_melt_sim(4, Space::Threads, 1.44);
        sim.run(100); // warm-up: growth allowed while the melt spreads
        let rebuilds_before = sim.rebuild_count;
        let neigh_grow = sim.neighbor_grow_count();
        let scatter_grow = sim.pair.scatter_grow_count();
        sim.run(50);
        assert!(
            sim.rebuild_count > rebuilds_before,
            "measurement window saw no rebuilds"
        );
        assert_eq!(
            sim.neighbor_grow_count(),
            neigh_grow,
            "neighbor-list buffers grew in steady state"
        );
        assert_eq!(
            sim.pair.scatter_grow_count(),
            scatter_grow,
            "scatter buffers grew in steady state"
        );
    }

    #[test]
    fn serial_and_threads_trajectories_are_close() {
        // Not bitwise identical (reduction order differs) but tightly
        // close over a short run.
        let mut a = lj_melt_sim(4, Space::Serial, 1.0);
        let mut b = lj_melt_sim(4, Space::Threads, 1.0);
        a.run(20);
        b.run(20);
        let xa = a.system.atoms.pos(0);
        let xb = b.system.atoms.pos(0);
        for k in 0..3 {
            assert!((xa[k] - xb[k]).abs() < 1e-8);
        }
    }

    #[test]
    fn device_space_runs_and_logs() {
        let space = Space::device(lkk_gpusim::GpuArch::h100());
        let ctx = space.device_ctx().unwrap().clone();
        let mut sim = lj_melt_sim(4, space, 1.44);
        sim.run(100);
        let launches: f64 = ctx.log.aggregate().iter().map(|k| k.launches).sum();
        assert!(launches > 100.0, "device kernels were not logged");
        // Energy still conserved on the simulated device (the total
        // oscillates with the Verlet discretization; no secular drift).
        let e0 = sim.thermo.first().map(|r| r.e_total).unwrap_or(0.0);
        let drift = (sim.total_energy() - e0) / sim.system.atoms.nlocal as f64;
        assert!(drift.abs() < 1e-3, "drift {drift}");
    }

    /// The launch log holds one row per kernel, so a long device run
    /// keeps it at the size a short one reaches.
    #[test]
    fn device_launch_log_stays_bounded() {
        let space = Space::device(lkk_gpusim::GpuArch::h100());
        let ctx = space.device_ctx().unwrap().clone();
        let mut sim = lj_melt_sim(4, space, 1.44);
        sim.run(10);
        let kernels = ctx.log.len();
        sim.run(990);
        assert_eq!(
            ctx.log.len(),
            kernels,
            "launch log grew with the step count"
        );
        let launches: f64 = ctx.log.aggregate().iter().map(|k| k.launches).sum();
        assert!(
            launches > 1000.0,
            "only {launches} launches over 1000 steps"
        );
    }

    #[test]
    fn langevin_equilibrates_to_target() {
        let mut sim = lj_melt_sim(4, Space::Threads, 0.1);
        sim.fixes
            .push(Box::new(crate::fix::FixLangevin::new(1.0, 0.2, 123)));
        sim.run(600);
        // Average temperature of the last stretch near 1.0.
        sim.thermo_every = 10;
        let mut acc = 0.0;
        let mut count = 0;
        for _ in 0..20 {
            sim.run(10);
            acc += sim.thermo_row().temp;
            count += 1;
        }
        let t_avg = acc / count as f64;
        assert!((t_avg - 1.0).abs() < 0.15, "T_avg = {t_avg}");
    }

    #[test]
    fn pair_only_reverse_offload_matches_device_resident() {
        use lkk_kokkos::profile;
        // Device-resident reference.
        let mut resident = lj_melt_sim(4, Space::device(lkk_gpusim::GpuArch::h100()), 1.0);
        resident.run(20);
        let x_ref = resident.system.atoms.pos(5);

        // pair/only: integration on the host, pair on the device.
        profile::reset_transfer_totals();
        let mut offload = lj_melt_sim(4, Space::device(lkk_gpusim::GpuArch::h100()), 1.0);
        offload.pair_only = true;
        offload.run(20);
        let x_off = offload.system.atoms.pos(5);
        for k in 0..3 {
            assert!((x_ref[k] - x_off[k]).abs() < 1e-9, "trajectory diverged");
        }
        // The reverse offload pays per-step transfers (x down, f up).
        let (h2d, d2h, nh, nd) = profile::transfer_totals();
        assert!(nh >= 20 && nd >= 20, "transfers h2d={nh} d2h={nd}");
        assert!(h2d > 0 && d2h > 0);
    }

    #[test]
    fn phase_regions_flow_to_subscribers() {
        use lkk_gpusim::StatsAccumulator;
        use std::sync::Arc;
        let acc = Arc::new(StatsAccumulator::new());
        let id = profile::register_subscriber(acc.clone());
        let mut sim = lj_melt_sim(4, Space::Serial, 1.0);
        sim.run(3);
        profile::unregister_subscriber(id);
        let snap = acc.snapshot();
        // Other tests may run concurrently and contribute, so only
        // lower-bound the counts from our own 3 steps.
        assert!(snap.regions.get("step").copied().unwrap_or(0) >= 3);
        assert!(snap.regions.get("step/pair").copied().unwrap_or(0) >= 3);
        assert!(snap.regions.get("step/pair/comm").copied().unwrap_or(0) >= 3);
        assert!(snap.regions.get("step/integrate").copied().unwrap_or(0) >= 6);
        assert!(
            snap.launches.keys().any(|k| k.starts_with("PairCompute")),
            "pair kernel launches not observed: {:?}",
            snap.launches.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn timings_accumulate_and_summarize() {
        let mut sim = lj_melt_sim(4, Space::Threads, 1.0);
        sim.run(10);
        let t = sim.timings;
        assert_eq!(t.steps, 10);
        assert!(t.pair > 0.0);
        assert!(t.integrate > 0.0);
        assert!(t.total() > 0.0);
        let text = t.summary();
        assert!(text.contains("Pair"));
        assert!(text.contains("10 steps"));
    }
}
