//! The neighbor rows' no-clear contract, seen from every row reader.
//!
//! `NeighborList::rebuild` re-strides its row storage without clearing
//! it (`View::realloc_without_initializing`): only the `numneigh[i]`
//! leading slots of row `i` are written, the rest keeps whatever an
//! earlier, differently shaped list left there (builds with debug
//! assertions overwrite it with `u32::MAX`). A list that shrank and grew
//! again must therefore read exactly like one built fresh, for every pair
//! style on both layouts: same rows, same forces and tallies to the bit —
//! a reader that strayed past `numneigh[i]` would index a stale or
//! poisoned atom.

mod common;

use common::{every_style, Case};
use lammps_kk::prelude::*;

/// Forces on owned and ghost atoms (as bits) and the tallies of a new
/// pair style over `list`.
fn evaluate(case: &Case, system: &mut System, list: &NeighborList) -> (PairResults, Vec<[u64; 3]>) {
    let mut pair = (case.make_pair)(&system.space);
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

fn recycled_list_reads_like_a_fresh_one(case: &Case, space: Space) {
    let pair = (case.make_pair)(&space);
    let settings = NeighborSettings::new(pair.cutoff(), 0.3, pair.wants_half_list());
    let narrow = NeighborSettings::new(0.5 * pair.cutoff(), 0.1, settings.half);
    let mut system = case.system(&space, &settings);

    let fresh = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
    let mut recycled = NeighborList::build(&system.atoms, &system.domain, &settings, &space);
    recycled.rebuild(&system.atoms, &system.domain, &narrow, &space);
    assert!(recycled.maxneigh < fresh.maxneigh, "the narrow list shrank");
    recycled.rebuild(&system.atoms, &system.domain, &settings, &space);

    let rows = if space.is_device() {
        "strided"
    } else {
        "contiguous"
    };
    let name = format!("{} on {rows} rows", case.name);
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
    let want = evaluate(case, &mut system, &fresh);
    let got = evaluate(case, &mut system, &recycled);
    assert!(want.1.iter().flatten().any(|&b| b != 0), "{name}: no force");
    assert_eq!(got.0, want.0, "{name}: tallies");
    assert_eq!(got.1, want.1, "{name}: forces");
}

/// The named cases of the every-style table, on contiguous (host) and
/// strided (device) rows.
fn check(names: &[&str]) {
    let cases = every_style();
    for name in names {
        let case = cases.iter().find(|c| c.name == *name).expect(name);
        for space in [Space::Serial, Space::device(GpuArch::h100())] {
            recycled_list_reads_like_a_fresh_one(case, space);
        }
    }
}

#[test]
fn pair_kernel_reads_recycled_rows_on_both_layouts() {
    // (The team kernel tallies through atomics: not reproducible.)
    check(&["lj/half", "lj/full", "morse", "eam", "sw", "mliap"]);
}

#[test]
fn snap_reads_recycled_rows() {
    check(&["snap"]);
}

#[test]
fn reaxff_reads_recycled_rows() {
    check(&["reaxff"]);
}
