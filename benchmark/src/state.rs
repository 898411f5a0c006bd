//! Final atom states: the file a child leaves for its parent, and the
//! correctness checks made on them.

use crate::api::AtomState;
use std::io::Write;
use std::path::Path;

const WORDS: usize = 11;

pub fn write(path: &Path, states: &[AtomState]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(&(states.len() as u64).to_le_bytes())?;
    for s in states {
        out.write_all(&s.tag.to_le_bytes())?;
        out.write_all(&(s.typ as i64).to_le_bytes())?;
        for value in s.x.iter().chain(&s.v).chain(&s.f) {
            out.write_all(&value.to_le_bytes())?;
        }
    }
    out.flush()
}

pub fn read(path: &Path) -> std::io::Result<Vec<AtomState>> {
    decode(&std::fs::read(path)?)
}

/// The states in the bytes of a file that [`write`] made.
pub fn decode(bytes: &[u8]) -> std::io::Result<Vec<AtomState>> {
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "truncated state file");
    let word = |i: usize| -> Result<[u8; 8], std::io::Error> {
        bytes
            .get(8 * i..8 * i + 8)
            .and_then(|b| b.try_into().ok())
            .ok_or_else(bad)
    };
    let n = u64::from_le_bytes(word(0)?) as usize;
    if bytes.len() != 8 * (1 + n.saturating_mul(WORDS)) {
        return Err(bad());
    }
    let mut states = Vec::with_capacity(n);
    for i in 0..n {
        let at = 1 + i * WORDS;
        let mut real = [0.0f64; 9];
        for (k, r) in real.iter_mut().enumerate() {
            *r = f64::from_le_bytes(word(at + 2 + k)?);
        }
        states.push(AtomState {
            tag: i64::from_le_bytes(word(at)?),
            typ: i64::from_le_bytes(word(at + 1)?) as i32,
            x: [real[0], real[1], real[2]],
            v: [real[3], real[4], real[5]],
            f: [real[6], real[7], real[8]],
        });
    }
    Ok(states)
}

/// Is every position, velocity and force finite?
pub fn all_finite(states: &[AtomState]) -> bool {
    states
        .iter()
        .all(|s| s.x.iter().chain(&s.v).chain(&s.f).all(|c| c.is_finite()))
}

/// Do the final atoms carry exactly the initial tags? (`states` comes
/// sorted by tag from the program.)
pub fn same_tags(states: &[AtomState], initial_tags: &[i64]) -> bool {
    let mut initial = initial_tags.to_vec();
    initial.sort_unstable();
    states.len() == initial.len() && states.iter().zip(&initial).all(|(s, &t)| s.tag == t)
}

/// |Σ m·v| per atom.
pub fn momentum_per_atom(states: &[AtomState], masses: &[f64]) -> f64 {
    let mut p = [0.0f64; 3];
    for s in states {
        let m = masses.get(s.typ as usize).copied().unwrap_or(f64::NAN);
        for (pk, vk) in p.iter_mut().zip(&s.v) {
            *pk += m * vk;
        }
    }
    (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt() / states.len().max(1) as f64
}

/// Largest minimum-image |Δx| between two states of the same atoms;
/// infinite when the atoms differ.
pub fn max_dx(a: &[AtomState], b: &[AtomState], box_lengths: [f64; 3]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for (p, q) in a.iter().zip(b) {
        if p.tag != q.tag {
            return f64::INFINITY;
        }
        let mut dsq = 0.0;
        for ((xp, xq), length) in p.x.iter().zip(&q.x).zip(&box_lengths) {
            let d = xp - xq;
            let d = d - length * (d / length).round();
            dsq += d * d;
        }
        worst = worst.max(dsq.sqrt());
    }
    worst
}
