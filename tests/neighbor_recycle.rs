//! The neighbor rows' no-clear contract, seen from every row reader.
//!
//! `NeighborList::rebuild` re-strides its row storage without clearing
//! it (`View::realloc_without_initializing`): only the `numneigh[i]`
//! leading slots of row `i` are written, the rest keeps whatever an
//! earlier, differently shaped list left there (builds with debug
//! assertions overwrite it with `u32::MAX`). A list that shrank and grew
//! again must therefore read exactly like one built fresh, for the pair
//! kernel on both layouts, SNAP and ReaxFF: same rows, same forces and
//! tallies to the bit — a reader that strayed past `numneigh[i]` would
//! index a stale or poisoned atom.

use lammps_kk::core::comm::build_ghosts;
use lammps_kk::prelude::*;
use lammps_kk::reaxff::hns;

/// Forces on owned and ghost atoms (as bits) and the tallies of a new
/// pair style over `list`.
fn evaluate(
    make_pair: &dyn Fn(&Space) -> Box<dyn PairStyle>,
    system: &mut System,
    list: &NeighborList,
) -> (PairResults, Vec<[u64; 3]>) {
    let mut pair = make_pair(&system.space);
    for i in 0..system.atoms.nall() {
        for k in 0..3 {
            system.atoms.f.h_view_mut().set([i, k], 0.0);
        }
    }
    let results = pair.compute(system, list, true);
    system.atoms.sync(&Space::Serial, Mask::F);
    let f = system.atoms.f.h_view();
    let forces = (0..system.atoms.nall())
        .map(|i| f.get3(i).map(f64::to_bits))
        .collect();
    (results, forces)
}

fn recycled_list_reads_like_a_fresh_one(
    mut atoms: AtomData,
    domain: Domain,
    units: Units,
    space: Space,
    make_pair: &dyn Fn(&Space) -> Box<dyn PairStyle>,
) {
    let pair = make_pair(&space);
    let settings = NeighborSettings::new(pair.cutoff(), 0.3, pair.wants_half_list());
    let narrow = NeighborSettings::new(0.5 * pair.cutoff(), 0.1, settings.half);
    atoms.wrap_positions(&domain);
    let mut system = System::new(atoms, domain, space.clone()).with_units(units);
    system.ghosts = build_ghosts(&mut system.atoms, &system.domain, settings.cutneigh());

    let fresh = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
    let mut recycled = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
    recycled.rebuild(&system.atoms, &system.domain, &narrow, &space);
    assert!(recycled.maxneigh < fresh.maxneigh, "the narrow list shrank");
    recycled.rebuild(&system.atoms, &system.domain, &settings, &space);

    let name = pair.name().to_string();
    assert_eq!(recycled.maxneigh, fresh.maxneigh, "{name}");
    assert_eq!(recycled.total_pairs, fresh.total_pairs, "{name}");
    for i in 0..fresh.nlocal {
        let nn = fresh.numneigh.at([i]) as usize;
        assert_eq!(recycled.numneigh.at([i]) as usize, nn, "{name}: atom {i}");
        for s in 0..fresh.maxneigh {
            if s < nn {
                assert_eq!(recycled.neighbors.at([i, s]), fresh.neighbors.at([i, s]));
            } else if cfg!(debug_assertions) {
                assert_eq!(recycled.neighbors.at([i, s]), u32::MAX, "unpoisoned tail");
            }
        }
    }
    let want = evaluate(make_pair, &mut system, &fresh);
    let got = evaluate(make_pair, &mut system, &recycled);
    assert!(want.1.iter().flatten().any(|&b| b != 0), "{name}: no force");
    assert_eq!(got.0, want.0, "{name}: tallies");
    assert_eq!(got.1, want.1, "{name}: forces");
}

fn jittered(mut positions: Vec<[f64; 3]>, amp: f64) -> Vec<[f64; 3]> {
    for (i, p) in positions.iter_mut().enumerate() {
        for (k, x) in p.iter_mut().enumerate() {
            *x += amp * (((i * 29 + k * 11) % 31) as f64 / 31.0 - 0.5);
        }
    }
    positions
}

#[test]
fn pair_kernel_reads_recycled_rows_on_both_layouts() {
    let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
    for space in [Space::Serial, Space::device(GpuArch::h100())] {
        recycled_list_reads_like_a_fresh_one(
            AtomData::from_positions(&jittered(lat.positions(5, 5, 5), 0.2)),
            lat.domain(5, 5, 5),
            Units::lj(),
            space,
            &|space| Box::new(PairKokkos::new(LjCut::single_type(1.0, 1.0, 2.5), space)),
        );
    }
}

#[test]
fn snap_reads_recycled_rows() {
    let lat = Lattice::new(LatticeKind::Bcc, 3.16);
    let params = SnapParams {
        twojmax: 4,
        rcut: 4.7,
        ..Default::default()
    };
    recycled_list_reads_like_a_fresh_one(
        AtomData::from_positions(&jittered(lat.positions(4, 4, 4), 0.12)),
        lat.domain(4, 4, 4),
        Units::metal(),
        Space::Serial,
        &|space| Box::new(PairSnap::new(params.clone(), space)),
    );
}

#[test]
fn reaxff_reads_recycled_rows() {
    let (positions, types, domain) = hns::crystal(2, 2, 2, 8.5);
    let mut atoms = AtomData::from_positions(&jittered(positions, 0.08));
    atoms.mass = vec![12.0, 1.0, 14.0, 16.0];
    for (i, &t) in types.iter().enumerate() {
        atoms.typ.h_view_mut().set([i], t);
    }
    recycled_list_reads_like_a_fresh_one(atoms, domain, Units::metal(), Space::Serial, &|_| {
        Box::new(PairReaxff::new(ReaxParams::hns_like()))
    });
}
