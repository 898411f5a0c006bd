//! Shared by the integration suites: the every-style table (one small
//! periodic system per pair style, and per `PairKokkos` kernel) that
//! holds all styles to one property, and [`diff_runs`], the bitwise
//! comparison of two rank-parallel runs behind the chaos gate.

#![allow(dead_code, reason = "each suite uses part of the table")]

use lammps_kk::core::comm::build_ghosts;
use lammps_kk::core::pair::mliap::{Mlp, PairMliap, RadialSymmetry};
use lammps_kk::core::pair::morse::Morse;
use lammps_kk::core::pair::sw::{PairSw, SwParams};
use lammps_kk::prelude::*;
use lammps_kk::reaxff::hns;

pub type MakePair = Box<dyn Fn(&Space) -> Box<dyn PairStyle>>;

pub struct Case {
    pub name: &'static str,
    pub positions: Vec<[f64; 3]>,
    /// Per-atom types; empty = all type 0.
    pub types: Vec<i32>,
    pub domain: Domain,
    pub units: Units,
    /// Every work item writes its own force row and nothing else, so
    /// forces cannot depend on the order work items run in.
    pub own_row: bool,
    pub make_pair: MakePair,
}

impl Case {
    /// The case's atoms wrapped into its box on `space`, with ghosts out
    /// to `settings`' neighbor cutoff.
    pub fn system(&self, space: &Space, settings: &NeighborSettings) -> System {
        let mut atoms = AtomData::from_positions(&self.positions);
        for (i, &t) in self.types.iter().enumerate() {
            atoms.typ.h_view_mut().set([i], t);
        }
        atoms.wrap_positions(&self.domain);
        let mut system = System::new(atoms, self.domain, space.clone()).with_units(self.units);
        system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());
        system
    }

    /// The same periodic system repeated `m` times along each axis.
    pub fn tiled(mut self, m: usize) -> Case {
        let (lo, l) = (self.domain.lo, self.domain.lengths());
        let cells = (0..m * m * m).map(|c| [c % m, c / m % m, c / (m * m)]);
        let shifts: Vec<[f64; 3]> = cells
            .map(|c| [0, 1, 2].map(|k| c[k] as f64 * l[k]))
            .collect();
        self.positions = shifts
            .iter()
            .flat_map(|s| {
                self.positions
                    .iter()
                    .map(move |p| [0, 1, 2].map(|k| p[k] + s[k]))
            })
            .collect();
        self.types = self.types.repeat(shifts.len());
        self.domain = Domain::new(lo, [0, 1, 2].map(|k| lo[k] + m as f64 * l[k]));
        self
    }
}

/// Every site moved by up to ±`amp`/2 per axis (fixed sequence).
pub fn jittered(mut positions: Vec<[f64; 3]>, amp: f64) -> Vec<[f64; 3]> {
    for (i, p) in positions.iter_mut().enumerate() {
        for (k, x) in p.iter_mut().enumerate() {
            *x += amp * (((i * 29 + k * 11) % 31) as f64 / 31.0 - 0.5);
        }
    }
    positions
}

/// Diamond-cubic sites, `n`³ cells of edge `a`.
fn diamond(n: usize, a: f64) -> (Vec<[f64; 3]>, Domain) {
    let fcc = Lattice::new(LatticeKind::Fcc, a);
    let mut positions = fcc.positions(n, n, n);
    let shifted: Vec<[f64; 3]> = positions.iter().map(|p| p.map(|x| x + 0.25 * a)).collect();
    positions.extend(shifted);
    (positions, fcc.domain(n, n, n))
}

/// A `PairKokkos` kernel over `pot` on a jittered fcc LJ melt.
fn two_body<P: TwoBody + Clone + 'static>(
    name: &'static str,
    pot: P,
    half: bool,
    team: bool,
) -> Case {
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    let options = PairKokkosOptions {
        force_half: Some(half),
        team_over_neighbors: team,
    };
    Case {
        name,
        positions: jittered(lat.positions(5, 5, 5), 0.2),
        types: Vec::new(),
        domain: lat.domain(5, 5, 5),
        units: Units::lj(),
        own_row: !half,
        make_pair: Box::new(move |space| {
            Box::new(PairKokkos::with_options(pot.clone(), space, options))
        }),
    }
}

fn lj(name: &'static str, half: bool, team: bool) -> Case {
    two_body(name, LjCut::single_type(1.0, 1.0, 2.5), half, team)
}

pub fn every_style() -> Vec<Case> {
    let eam = Lattice::new(LatticeKind::Fcc, 3.61);
    let (si, si_domain) = diamond(2, 5.431);
    let mliap = Lattice::new(LatticeKind::Fcc, 3.0);
    let w = Lattice::new(LatticeKind::Bcc, 3.16);
    let snap = SnapParams {
        twojmax: 4,
        rcut: 4.7,
        ..Default::default()
    };
    let (hns_positions, hns_types, hns_domain) = hns::crystal(2, 2, 2, 8.5);
    vec![
        lj("lj/half", true, false),
        lj("lj/full", false, false),
        lj("lj/team", false, true),
        // The same generic driver over a second potential (§4.1).
        two_body("morse", Morse::new(1.0, 2.0, 1.2, 2.5), false, false),
        Case {
            name: "eam",
            positions: jittered(eam.positions(3, 3, 3), 0.1),
            types: Vec::new(),
            domain: eam.domain(3, 3, 3),
            units: Units::metal(),
            own_row: true,
            make_pair: Box::new(|_| Box::new(PairEam::new(EamParams::default()))),
        },
        Case {
            name: "sw",
            positions: jittered(si, 0.12),
            types: Vec::new(),
            domain: si_domain,
            units: Units::metal(),
            own_row: false,
            make_pair: Box::new(|_| Box::new(PairSw::new(SwParams::default()))),
        },
        Case {
            name: "mliap",
            positions: jittered(mliap.positions(3, 3, 3), 0.15),
            types: Vec::new(),
            domain: mliap.domain(3, 3, 3),
            units: Units::lj(),
            own_row: false,
            make_pair: Box::new(|_| {
                let descriptors = RadialSymmetry::new(8, 2.0, 4.0);
                Box::new(PairMliap::new(descriptors, Mlp::synthetic(8, 12, 99)))
            }),
        },
        Case {
            name: "snap",
            positions: jittered(w.positions(4, 4, 4), 0.12),
            types: Vec::new(),
            domain: w.domain(4, 4, 4),
            units: Units::metal(),
            own_row: false,
            make_pair: Box::new(move |space| Box::new(PairSnap::new(snap.clone(), space))),
        },
        Case {
            name: "reaxff",
            positions: jittered(hns_positions, 0.08),
            types: hns_types,
            domain: hns_domain,
            units: Units::metal(),
            own_row: false,
            make_pair: Box::new(|_| Box::new(PairReaxff::new(ReaxParams::hns_like()))),
        },
    ]
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
