//! The input-script command interpreter (§2.1).
//!
//! "Users interact with LAMMPS through input scripts... Each step is
//! executed using one or more of a varied set of LAMMPS commands" —
//! immediate commands (e.g. `create_atoms`) execute when parsed;
//! persistent ones (`pair_style`, `fix`) create styles that live in the
//! subsequent simulation. The `suffix` and `package kokkos` commands
//! reproduce the §3.1 accelerator selection.

use crate::atom::AtomData;
use crate::domain::Domain;
use crate::fix::{Fix, FixLangevin, FixMomentum, FixNve, FixNvt, FixSetForce};
use crate::lattice::{create_velocities, Lattice, LatticeKind};
use crate::sim::{Simulation, System};
use crate::style::{PairSpec, StyleRegistry};
use crate::units::Units;
use lkk_gpusim::GpuArch;
use lkk_kokkos::Space;
use std::num::NonZeroUsize;

/// The interpreter: mirrors the top-level LAMMPS class. Commands mutate
/// staged state; `run` assembles the [`Simulation`] and advances it.
pub struct Lammps {
    pub registry: StyleRegistry,
    units: Units,
    lattice: Option<Lattice>,
    cells: Option<(usize, usize, usize)>,
    atoms: Option<AtomData>,
    domain: Option<Domain>,
    ntypes: usize,
    masses: Vec<(usize, f64)>,
    pair_name: Option<String>,
    pair_spec: PairSpec,
    fix_cmds: Vec<Vec<String>>,
    dt: Option<f64>,
    thermo_every: usize,
    skin: f64,
    suffix: Option<String>,
    device_arch: Option<GpuArch>,
    pair_only: bool,
    pub sim: Option<Simulation>,
    pub verbose: bool,
}

impl Lammps {
    pub fn new(registry: StyleRegistry) -> Self {
        Lammps {
            registry,
            units: Units::lj(),
            lattice: None,
            cells: None,
            atoms: None,
            domain: None,
            ntypes: 1,
            masses: Vec::new(),
            pair_name: None,
            pair_spec: PairSpec::default(),
            fix_cmds: Vec::new(),
            dt: None,
            thermo_every: 0,
            skin: 0.3,
            suffix: None,
            device_arch: None,
            pair_only: false,
            sim: None,
            verbose: false,
        }
    }

    /// Run a whole script ( `#` comments, blank lines allowed).
    pub fn run_script(&mut self, script: &str) -> Result<(), String> {
        for (lineno, raw) in script.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            self.command(line)
                .map_err(|e| format!("line {}: '{}': {}", lineno + 1, line, e))?;
        }
        Ok(())
    }

    /// Execute a single command line.
    pub fn command(&mut self, line: &str) -> Result<(), String> {
        let tokens: Vec<String> = line.split_whitespace().map(|s| s.to_string()).collect();
        let cmd = tokens.first().ok_or("empty command line")?.as_str();
        let args = &tokens[1..];
        match cmd {
            "units" => {
                self.units = Units::from_name(args.first().ok_or("units: missing name")?)
                    .ok_or("units: unknown system")?;
                Ok(())
            }
            "lattice" => {
                let kind = LatticeKind::from_name(args.first().ok_or("lattice: missing kind")?)
                    .ok_or("lattice: unknown kind")?;
                let rho: f64 = parse(args.get(1), "lattice density/constant")?;
                let lat =
                    Some(Lattice::from_density(kind, rho)).filter(|l| l.a > 0.0 && l.a.is_finite());
                self.lattice = Some(lat.ok_or("lattice: density must be positive and finite")?);
                Ok(())
            }
            "create_box" => {
                let nx = parse::<NonZeroUsize>(args.first(), "create_box nx")?.get();
                let ny = parse::<NonZeroUsize>(args.get(1), "create_box ny")?.get();
                let nz = parse::<NonZeroUsize>(args.get(2), "create_box nz")?.get();
                let lat = self.lattice.ok_or("create_box: no lattice defined")?;
                self.cells = Some((nx, ny, nz));
                self.domain = Some(lat.domain(nx, ny, nz));
                Ok(())
            }
            "read_data" => {
                let path = args.first().ok_or("read_data: missing file")?;
                let file = std::fs::File::open(path).map_err(|e| format!("read_data: {e}"))?;
                let parsed = crate::data_io::read_data(std::io::BufReader::new(file))?;
                self.ntypes = parsed.ntypes;
                self.domain = Some(parsed.domain);
                self.atoms = Some(parsed.atoms);
                Ok(())
            }
            "write_data" => {
                let path = args.first().ok_or("write_data: missing file")?;
                let sim = self.sim.as_mut().ok_or("write_data: no simulation yet")?;
                sim.system
                    .atoms
                    .sync(&Space::Serial, crate::atom::Mask::ALL);
                let mut file =
                    std::fs::File::create(path).map_err(|e| format!("write_data: {e}"))?;
                crate::data_io::write_data(
                    &mut file,
                    &sim.system.atoms,
                    &sim.system.domain,
                    sim.system.atoms.mass.len(),
                )
                .map_err(|e| format!("write_data: {e}"))?;
                Ok(())
            }
            "create_atoms" => {
                let lat = self.lattice.ok_or("create_atoms: no lattice")?;
                let (nx, ny, nz) = self.cells.ok_or("create_atoms: no box")?;
                let mut atoms = AtomData::from_positions(&lat.positions(nx, ny, nz));
                atoms.mass = vec![1.0; self.ntypes];
                self.atoms = Some(atoms);
                Ok(())
            }
            "atom_types" => {
                // The atoms' mass table is sized when they are made.
                if self.atoms.is_some() || self.sim.is_some() {
                    return Err("atom_types: must come before create_atoms or read_data".into());
                }
                self.ntypes = parse::<NonZeroUsize>(args.first(), "atom_types count")?.get();
                Ok(())
            }
            "mass" => {
                let t = parse::<NonZeroUsize>(args.first(), "mass type")?.get();
                let m: f64 = parse(args.get(1), "mass")?;
                self.masses.push((t - 1, m));
                Ok(())
            }
            "velocity" => {
                // velocity all create <T> <seed>
                if args.len() < 4 || args[0] != "all" || args[1] != "create" {
                    return Err("velocity: only 'velocity all create T seed' supported".into());
                }
                let t: f64 = parse(args.get(2), "temperature")?;
                let seed: u64 = parse(args.get(3), "seed")?;
                let atoms = self.atoms.as_mut().ok_or("velocity: no atoms")?;
                apply_masses(&self.masses, atoms)?;
                create_velocities(atoms, &self.units, t, seed);
                Ok(())
            }
            "pair_style" => {
                self.pair_name = Some(args.first().ok_or("pair_style: missing name")?.clone());
                self.pair_spec.style_args = args[1..].to_vec();
                self.pair_spec.coeffs.clear();
                Ok(())
            }
            "pair_coeff" => {
                if self.pair_name.is_none() {
                    return Err("pair_coeff before pair_style".into());
                }
                self.pair_spec.coeffs.push(args.to_vec());
                Ok(())
            }
            "neighbor" => {
                self.skin = parse(args.first(), "skin")?;
                Ok(())
            }
            "fix" => {
                if args.len() < 3 {
                    return Err("fix: need id, group, style".into());
                }
                self.fix_cmds.push(args.to_vec());
                Ok(())
            }
            "timestep" => {
                self.dt = Some(parse(args.first(), "dt")?);
                Ok(())
            }
            "thermo" => {
                self.thermo_every = parse(args.first(), "interval")?;
                Ok(())
            }
            "suffix" => {
                let s = args.first().ok_or("suffix: missing value")?;
                self.suffix = if s == "off" { None } else { Some(s.clone()) };
                Ok(())
            }
            "package" => {
                // package kokkos device <arch> | package kokkos host
                if args.first().map(String::as_str) != Some("kokkos") {
                    return Err("package: only 'kokkos' supported".into());
                }
                match args.get(1).map(String::as_str) {
                    Some("host") | None => {
                        self.device_arch = None;
                        Ok(())
                    }
                    Some("device") => {
                        if args.get(3).map(String::as_str) == Some("pair/only") {
                            self.pair_only = true;
                        }
                        let arch = match args.get(2).map(String::as_str) {
                            None => GpuArch::h100(),
                            Some(name) => GpuArch::by_name(name)
                                .ok_or_else(|| format!("unknown device arch '{name}'"))?,
                        };
                        self.device_arch = Some(arch);
                        Ok(())
                    }
                    Some(o) => Err(format!("package kokkos: unknown option '{o}'")),
                }
            }
            "run" => {
                let n: u64 = parse(args.first(), "steps")?;
                self.run_steps(n)
            }
            other => Err(format!("unknown command '{other}'")),
        }
    }

    /// The execution space implied by `package kokkos` + `suffix`.
    fn space(&self) -> Space {
        match (&self.suffix, &self.device_arch) {
            (Some(_), Some(arch)) => Space::device(arch.clone()),
            (Some(_), None) => Space::Threads,
            (None, _) => Space::Serial,
        }
    }

    fn run_steps(&mut self, n: u64) -> Result<(), String> {
        if self.sim.is_none() {
            let mut atoms = self.atoms.take().ok_or("run: no atoms created")?;
            apply_masses(&self.masses, &mut atoms)?;
            let domain = self.domain.ok_or("run: no box")?;
            let space = self.space();
            let mut spec = self.pair_spec.clone();
            spec.ntypes = self.ntypes;
            let pair_name = self.pair_name.clone().ok_or("run: no pair_style")?;
            let pair =
                self.registry
                    .create_pair(&pair_name, &spec, &space, self.suffix.as_deref())?;
            let system = System::new(atoms, domain, space).with_units(self.units);
            let mut fixes: Vec<Box<dyn Fix>> = Vec::new();
            for fc in &self.fix_cmds {
                match fc[2].as_str() {
                    "nve" => fixes.push(Box::new(FixNve)),
                    "nvt" => {
                        // fix 1 all nvt temp <T> <T> <Tdamp>
                        let t: f64 = parse(fc.get(4), "nvt T")?;
                        let damp: f64 = parse(fc.get(6), "nvt Tdamp")?;
                        fixes.push(Box::new(FixNvt::new(t, damp)));
                    }
                    "langevin" => {
                        let t: f64 = parse(fc.get(3), "langevin T")?;
                        let damp: f64 = parse(fc.get(5), "langevin damp")?;
                        let seed: u64 = parse(fc.get(6), "langevin seed")?;
                        fixes.push(Box::new(FixLangevin::new(t, damp, seed)));
                    }
                    "momentum" => {
                        let every: u64 = parse(fc.get(3), "momentum interval")?;
                        fixes.push(Box::new(FixMomentum { every }));
                    }
                    "setforce" => {
                        // fix 1 all setforce <fx|NULL> <fy|NULL> <fz|NULL>
                        let comp = |tok: Option<&String>| -> Result<Option<f64>, String> {
                            match tok.map(String::as_str) {
                                Some("NULL") => Ok(None),
                                Some(v) => Ok(Some(v.parse().map_err(|e| format!("{e}"))?)),
                                None => Err("setforce: missing component".into()),
                            }
                        };
                        fixes.push(Box::new(FixSetForce {
                            first_n: usize::MAX,
                            fx: comp(fc.get(3))?,
                            fy: comp(fc.get(4))?,
                            fz: comp(fc.get(5))?,
                        }));
                    }
                    other => return Err(format!("unknown fix style '{other}'")),
                }
            }
            if fixes.is_empty() {
                fixes.push(Box::new(FixNve));
            }
            let mut sim = Simulation::new(system, pair).with_fixes(fixes);
            sim.settings.skin = self.skin;
            if let Some(dt) = self.dt {
                sim.dt = dt;
            }
            sim.thermo_every = self.thermo_every;
            sim.verbose = self.verbose;
            sim.pair_only = self.pair_only;
            self.sim = Some(sim);
        }
        self.sim.as_mut().unwrap().run(n);
        Ok(())
    }
}

/// Set every `mass` command's value on `atoms`. A type past the
/// system's type count is an error, not a line to skip.
fn apply_masses(masses: &[(usize, f64)], atoms: &mut AtomData) -> Result<(), String> {
    let ntypes = atoms.mass.len();
    for &(t_idx, m) in masses {
        *atoms.mass.get_mut(t_idx).ok_or_else(|| {
            format!(
                "mass: type {} does not exist (the system has {ntypes} atom types)",
                t_idx + 1
            )
        })? = m;
    }
    Ok(())
}

fn parse<T: std::str::FromStr>(tok: Option<&String>, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|e| format!("bad {what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MELT: &str = r#"
        # classic LJ melt benchmark
        units lj
        lattice fcc 0.8442
        create_box 4 4 4
        create_atoms
        mass 1 1.0
        velocity all create 1.44 87287
        pair_style lj/cut 2.5
        pair_coeff 1 1 1.0 1.0
        neighbor 0.3
        fix 1 all nve
        timestep 0.005
        thermo 50
        run 100
    "#;

    #[test]
    fn melt_script_runs_and_conserves_energy() {
        let mut lmp = Lammps::new(StyleRegistry::core());
        lmp.run_script(MELT).unwrap();
        let sim = lmp.sim.as_ref().unwrap();
        assert_eq!(sim.step, 100);
        assert_eq!(sim.system.atoms.nlocal, 256);
        let rows = &sim.thermo;
        assert!(rows.len() >= 3);
        // The Verlet total-energy error oscillates with the discretization
        // (amplitude ~1e-3·N for this melt at dt = 0.005, any velocity
        // seed); a single-step sample is a phase lottery. Bound the
        // sampled drift by that oscillation amplitude — what the test
        // guards against is *secular* drift, which would be far larger.
        let drift =
            (rows.last().unwrap().e_total - rows[0].e_total).abs() / sim.system.atoms.nlocal as f64;
        assert!(drift < 1e-3, "drift {drift}");
    }

    #[test]
    fn suffix_kk_uses_threads_without_device() {
        let mut lmp = Lammps::new(StyleRegistry::core());
        let script = MELT.replace("pair_style lj/cut 2.5", "suffix kk\npair_style lj/cut 2.5");
        lmp.run_script(&script).unwrap();
        assert_eq!(lmp.sim.as_ref().unwrap().pair.name(), "lj/cut/kk");
    }

    #[test]
    fn package_kokkos_device_runs_on_simulated_gpu() {
        let mut lmp = Lammps::new(StyleRegistry::core());
        let script = MELT.replace(
            "pair_style lj/cut 2.5",
            "package kokkos device h100\nsuffix kk\npair_style lj/cut 2.5",
        );
        lmp.run_script(&script).unwrap();
        let sim = lmp.sim.as_ref().unwrap();
        assert!(sim.system.space.is_device());
        assert!(!sim.system.space.device_ctx().unwrap().log.is_empty());
    }

    #[test]
    fn second_run_continues() {
        let mut lmp = Lammps::new(StyleRegistry::core());
        lmp.run_script(MELT).unwrap();
        lmp.command("run 50").unwrap();
        assert_eq!(lmp.sim.as_ref().unwrap().step, 150);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let mut lmp = Lammps::new(StyleRegistry::core());
        let err = lmp.run_script("units lj\nbogus_command 1 2").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("bogus_command"));
    }

    #[test]
    fn malformed_setup_lines_are_errors() {
        let mut lmp = Lammps::new(StyleRegistry::core());
        for line in ["", "   ", "mass 0 1.0", "atom_types 0", "lattice fcc 0"] {
            assert!(lmp.command(line).is_err(), "{line:?} was accepted");
        }
        for rho in ["-1", "nan", "inf"] {
            assert!(lmp.command(&format!("lattice fcc {rho}")).is_err());
        }
        lmp.command("lattice fcc 0.8442").unwrap();
        let err = lmp.command("create_box 0 2 2").unwrap_err();
        assert!(err.contains("create_box"), "{err}");
    }

    #[test]
    fn mass_of_a_type_the_system_lacks_is_an_error() {
        // Applied at `velocity`, and at `run` when no `velocity` came first.
        for velocity in ["velocity all create 1.44 87287", ""] {
            let script = MELT
                .replace("create_box 4 4 4", "create_box 4 4 4\natom_types 2")
                .replace("mass 1 1.0", "mass 1 1.0\nmass 3 2.0")
                .replace("velocity all create 1.44 87287", velocity)
                .replace("run 100", "run 0");
            let err = Lammps::new(StyleRegistry::core())
                .run_script(&script)
                .unwrap_err();
            assert!(
                err.contains("type 3") && err.contains("2 atom types"),
                "{velocity:?}: {err}"
            );
        }
    }

    #[test]
    fn atom_types_after_the_atoms_exist_is_an_error() {
        let mut lmp = Lammps::new(StyleRegistry::core());
        for line in ["lattice fcc 0.8442", "create_box 2 2 2", "create_atoms"] {
            lmp.command(line).unwrap();
        }
        let err = lmp.command("atom_types 2").unwrap_err();
        assert!(err.contains("before create_atoms"), "{err}");
    }

    /// Every setup command (all but `run`, `read_data` and `write_data`,
    /// which run MD or touch files), one line after another on one
    /// interpreter, each argument either the well-formed token for its
    /// slot (two draws in three) or one of the values scripts get wrong.
    /// Even cases run their lines in table order, as a script would, so
    /// the later commands find atoms to act on. No line may panic.
    #[test]
    fn setup_command_fuzz_never_panics() {
        use proptest::prelude::*;
        use std::panic::AssertUnwindSafe;
        const COMMANDS: [(&str, &[&str]); 16] = [
            ("", &[]),
            ("units", &["lj"]),
            ("atom_types", &["2"]),
            ("lattice", &["fcc", "0.8442"]),
            ("create_box", &["2", "2", "2"]),
            ("create_atoms", &[]),
            ("mass", &["1", "1.0"]),
            ("velocity", &["all", "create", "1.44", "87287"]),
            ("pair_style", &["lj/cut", "2.5"]),
            ("pair_coeff", &["1", "1", "1.0", "1.0"]),
            ("neighbor", &["0.3"]),
            ("fix", &["1", "all", "nve"]),
            ("timestep", &["0.005"]),
            ("thermo", &["10"]),
            ("suffix", &["kk"]),
            ("package", &["kokkos", "device", "h100"]),
        ];
        const JUNK: [&str; 10] = ["", "0", "-1", "1", "2", "3", "nan", "inf", "-inf", "x1"];
        let script = prop::collection::vec(
            (
                0..COMMANDS.len(),
                prop::collection::vec(0..3 * JUNK.len(), 0..6),
            ),
            1..32,
        );
        let mut rng = TestRng::deterministic("setup_command_fuzz_never_panics");
        let mut accepted = [0usize; COMMANDS.len()];
        for case in 0..8192 {
            let mut case_lines = script.sample(&mut rng);
            if case % 2 == 0 {
                case_lines.sort_by_key(|&(c, _)| c);
            }
            let mut lmp = Lammps::new(StyleRegistry::core());
            let mut lines = Vec::new();
            for (c, draws) in case_lines {
                let (name, slots) = COMMANDS[c];
                let args = draws.iter().enumerate().map(|(k, &d)| match slots.get(k) {
                    Some(token) if d >= JUNK.len() => *token,
                    _ => JUNK[d % JUNK.len()],
                });
                let line = std::iter::once(name)
                    .chain(args)
                    .collect::<Vec<_>>()
                    .join(" ");
                lines.push(line.clone());
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| lmp.command(&line)));
                match run {
                    Ok(Ok(())) => accepted[c] += 1,
                    Ok(Err(_)) => {}
                    Err(_) => panic!("a setup line panicked; script:\n{}", lines.join("\n")),
                }
            }
        }
        // The fuzz has teeth: every command got past its checks somewhere.
        for ((name, _), n) in COMMANDS.iter().zip(accepted).skip(1) {
            assert!(
                n > 0,
                "`{name}` never succeeded: the fuzz cannot reach its body"
            );
        }
    }

    #[test]
    fn langevin_fix_from_script() {
        let mut lmp = Lammps::new(StyleRegistry::core());
        let script = MELT.replace(
            "fix 1 all nve",
            "fix 1 all nve\nfix 2 all langevin 0.7 0.7 0.1 12345",
        );
        lmp.run_script(&script).unwrap();
        assert_eq!(lmp.sim.as_ref().unwrap().fixes.len(), 2);
    }
}
