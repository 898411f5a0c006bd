//! LAMMPS data-file input/output (`read_data` / `write_data`).
//!
//! Supports the orthogonal-box subset used by the benchmarks: the
//! header (atom/type counts, box bounds), `Masses`, `Atoms # charge`
//! (id, type, q, x, y, z) and optional `Velocities` sections. Files
//! written by [`write_data`] round-trip exactly through [`read_data`],
//! and real LAMMPS accepts them.

use crate::atom::AtomData;
use crate::domain::Domain;
use std::io::{BufRead, Write};

/// A parsed data file.
#[derive(Debug)]
pub struct DataFile {
    pub atoms: AtomData,
    pub domain: Domain,
    pub ntypes: usize,
}

/// Write the system in LAMMPS data format (atom_style charge).
pub fn write_data<W: Write>(
    out: &mut W,
    atoms: &AtomData,
    domain: &Domain,
    ntypes: usize,
) -> std::io::Result<()> {
    let n = atoms.nlocal;
    writeln!(out, "LAMMPS data file via lammps-kk\n")?;
    writeln!(out, "{n} atoms")?;
    writeln!(out, "{ntypes} atom types\n")?;
    writeln!(out, "{} {} xlo xhi", domain.lo[0], domain.hi[0])?;
    writeln!(out, "{} {} ylo yhi", domain.lo[1], domain.hi[1])?;
    writeln!(out, "{} {} zlo zhi", domain.lo[2], domain.hi[2])?;
    writeln!(out, "\nMasses\n")?;
    for (t, m) in atoms.mass.iter().enumerate().take(ntypes) {
        writeln!(out, "{} {}", t + 1, m)?;
    }
    writeln!(out, "\nAtoms # charge\n")?;
    let typ = atoms.typ.h_view();
    let q = atoms.q.h_view();
    let tag = atoms.tag.h_view();
    for i in 0..n {
        let p = atoms.pos(i);
        writeln!(
            out,
            "{} {} {} {} {} {}",
            tag.at([i]),
            typ.at([i]) + 1,
            q.at([i]),
            p[0],
            p[1],
            p[2]
        )?;
    }
    writeln!(out, "\nVelocities\n")?;
    let v = atoms.v.h_view();
    for i in 0..n {
        writeln!(
            out,
            "{} {} {} {}",
            tag.at([i]),
            v.at([i, 0]),
            v.at([i, 1]),
            v.at([i, 2])
        )?;
    }
    Ok(())
}

/// Parse a LAMMPS data file (atom_style charge subset).
pub fn read_data<R: BufRead>(input: R) -> Result<DataFile, String> {
    let mut natoms = 0usize;
    let mut ntypes = 0usize;
    let mut lo = [0.0f64; 3];
    let mut hi = [1.0f64; 3];
    let mut masses: Vec<(usize, f64)> = Vec::new();
    // tag → (type, q, x, v)
    let mut rows: Vec<(i64, i32, f64, [f64; 3])> = Vec::new();
    let mut vels: Vec<(i64, [f64; 3])> = Vec::new();

    #[derive(PartialEq)]
    enum Section {
        Header,
        Masses,
        Atoms,
        Velocities,
        Skip,
    }
    let mut section = Section::Header;
    for raw in input.lines() {
        let raw = raw.map_err(|e| e.to_string())?;
        let line = raw.split('#').next().unwrap_or("").trim().to_string();
        if line.is_empty() {
            continue;
        }
        match line.as_str() {
            "Masses" => {
                section = Section::Masses;
                continue;
            }
            "Atoms" => {
                section = Section::Atoms;
                continue;
            }
            "Velocities" => {
                section = Section::Velocities;
                continue;
            }
            _ if line.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
                && section != Section::Header =>
            {
                section = Section::Skip;
                continue;
            }
            _ => {}
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match section {
            Section::Header => {
                if line.ends_with(" atoms") {
                    natoms = toks[0].parse().map_err(|e| format!("atoms count: {e}"))?;
                } else if line.ends_with("atom types") {
                    ntypes = toks[0].parse().map_err(|e| format!("type count: {e}"))?;
                } else if line.ends_with("xlo xhi") {
                    lo[0] = toks[0].parse().map_err(|e| format!("xlo: {e}"))?;
                    hi[0] = toks[1].parse().map_err(|e| format!("xhi: {e}"))?;
                } else if line.ends_with("ylo yhi") {
                    lo[1] = toks[0].parse().map_err(|e| format!("ylo: {e}"))?;
                    hi[1] = toks[1].parse().map_err(|e| format!("yhi: {e}"))?;
                } else if line.ends_with("zlo zhi") {
                    lo[2] = toks[0].parse().map_err(|e| format!("zlo: {e}"))?;
                    hi[2] = toks[1].parse().map_err(|e| format!("zhi: {e}"))?;
                }
            }
            Section::Masses => {
                let t: usize = toks[0].parse().map_err(|e| format!("mass type: {e}"))?;
                let m: f64 = toks[1].parse().map_err(|e| format!("mass: {e}"))?;
                masses.push((t - 1, m));
            }
            Section::Atoms => {
                if toks.len() < 6 {
                    return Err(format!("short Atoms line: '{line}'"));
                }
                let tag: i64 = toks[0].parse().map_err(|e| format!("atom id: {e}"))?;
                let t: i32 = toks[1]
                    .parse::<i32>()
                    .map_err(|e| format!("atom type: {e}"))?
                    - 1;
                let q: f64 = toks[2].parse().map_err(|e| format!("charge: {e}"))?;
                let x = [
                    toks[3].parse().map_err(|e| format!("x: {e}"))?,
                    toks[4].parse().map_err(|e| format!("y: {e}"))?,
                    toks[5].parse().map_err(|e| format!("z: {e}"))?,
                ];
                rows.push((tag, t, q, x));
            }
            Section::Velocities => {
                let tag: i64 = toks[0].parse().map_err(|e| format!("vel id: {e}"))?;
                let v = [
                    toks[1].parse().map_err(|e| format!("vx: {e}"))?,
                    toks[2].parse().map_err(|e| format!("vy: {e}"))?,
                    toks[3].parse().map_err(|e| format!("vz: {e}"))?,
                ];
                vels.push((tag, v));
            }
            Section::Skip => {}
        }
    }
    if rows.len() != natoms {
        return Err(format!("header says {natoms} atoms, found {}", rows.len()));
    }
    rows.sort_by_key(|r| r.0);
    let positions: Vec<[f64; 3]> = rows.iter().map(|r| r.3).collect();
    let mut atoms = AtomData::from_positions(&positions);
    atoms.mass = vec![1.0; ntypes.max(1)];
    for &(t, m) in &masses {
        if t < atoms.mass.len() {
            atoms.mass[t] = m;
        }
    }
    {
        let typ = atoms.typ.h_view_mut();
        for (i, r) in rows.iter().enumerate() {
            typ.set([i], r.1);
        }
        let q = atoms.q.h_view_mut();
        for (i, r) in rows.iter().enumerate() {
            q.set([i], r.2);
        }
        let tag = atoms.tag.h_view_mut();
        for (i, r) in rows.iter().enumerate() {
            tag.set([i], r.0);
        }
    }
    if !vels.is_empty() {
        #[expect(clippy::disallowed_types, reason = "lookup-only, never iterated")]
        let index_of: std::collections::HashMap<i64, usize> =
            rows.iter().enumerate().map(|(i, r)| (r.0, i)).collect();
        let v = atoms.v.h_view_mut();
        for (tag, vel) in vels {
            let &i = index_of
                .get(&tag)
                .ok_or_else(|| format!("velocity for unknown atom {tag}"))?;
            for (k, &vk) in vel.iter().enumerate() {
                v.set([i, k], vk);
            }
        }
    }
    Ok(DataFile {
        atoms,
        domain: Domain::new(lo, hi),
        ntypes: ntypes.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{create_velocities, Lattice, LatticeKind};
    use crate::units::Units;

    fn sample() -> (AtomData, Domain) {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut atoms = AtomData::from_positions(&lat.positions(2, 2, 2));
        atoms.mass = vec![39.95, 1.0];
        atoms.typ.h_view_mut().set([3], 1);
        atoms.q.h_view_mut().set([5], -0.42);
        create_velocities(&mut atoms, &Units::lj(), 1.0, 7);
        (atoms, lat.domain(2, 2, 2))
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (atoms, domain) = sample();
        let mut buf = Vec::new();
        write_data(&mut buf, &atoms, &domain, 2).unwrap();
        let parsed = read_data(std::io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(parsed.atoms.nlocal, atoms.nlocal);
        assert_eq!(parsed.ntypes, 2);
        assert_eq!(parsed.domain, domain);
        assert_eq!(parsed.atoms.mass, atoms.mass);
        for i in 0..atoms.nlocal {
            assert_eq!(parsed.atoms.pos(i), atoms.pos(i));
            assert_eq!(
                parsed.atoms.typ.h_view().at([i]),
                atoms.typ.h_view().at([i])
            );
            assert_eq!(parsed.atoms.q.h_view().at([i]), atoms.q.h_view().at([i]));
            for k in 0..3 {
                assert_eq!(
                    parsed.atoms.v.h_view().at([i, k]),
                    atoms.v.h_view().at([i, k])
                );
            }
        }
    }

    #[test]
    fn atoms_are_reordered_by_tag() {
        let text = "\
test

2 atoms
1 atom types

0.0 4.0 xlo xhi
0.0 4.0 ylo yhi
0.0 4.0 zlo zhi

Masses

1 12.0

Atoms # charge

2 1 0.5 1.0 1.0 1.0
1 1 -0.5 2.0 2.0 2.0
";
        let parsed = read_data(std::io::BufReader::new(text.as_bytes())).unwrap();
        // Row 0 is tag 1.
        assert_eq!(parsed.atoms.tag.h_view().at([0]), 1);
        assert_eq!(parsed.atoms.pos(0), [2.0, 2.0, 2.0]);
        assert_eq!(parsed.atoms.q.h_view().at([0]), -0.5);
        assert_eq!(parsed.atoms.mass[0], 12.0);
    }

    #[test]
    fn header_mismatch_is_an_error() {
        let text = "t\n\n3 atoms\n1 atom types\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo zhi\n\nAtoms # charge\n\n1 1 0.0 0.5 0.5 0.5\n";
        assert!(read_data(std::io::BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let text = "t\n\n1 atoms\n1 atom types\n0 1 xlo xhi\n0 1 ylo yhi\n0 1 zlo zhi\n\nBonds\n\n1 1 1 2\n\nAtoms # charge\n\n1 1 0.0 0.5 0.5 0.5\n";
        let parsed = read_data(std::io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(parsed.atoms.nlocal, 1);
    }
}
