//! Struct-of-arrays atom storage on `DualView`s.
//!
//! The per-field [`Mask`] bits reproduce the KOKKOS package's datamask
//! flags (§3.2): every style declares which fields it reads/modifies,
//! and calls [`AtomData::sync`] / [`AtomData::modified`] with that mask;
//! transfers only happen when the field was last written in the other
//! memory space.
//!
//! Atom tags are 64-bit (`i64`) from the start — the "bigint"
//! exascale-preparedness measure of Appendix B, where global atom counts
//! can exceed 2³¹.

use crate::domain::Domain;
use lkk_kokkos::{DualView, Space};

/// Field masks for sync/modify bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask(pub u32);

impl Mask {
    pub const X: Mask = Mask(1);
    pub const V: Mask = Mask(2);
    pub const F: Mask = Mask(4);
    pub const TYPE: Mask = Mask(8);
    pub const Q: Mask = Mask(16);
    pub const TAG: Mask = Mask(32);
    pub const ALL: Mask = Mask(63);

    #[inline]
    pub fn contains(self, other: Mask) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for Mask {
    type Output = Mask;
    fn bitor(self, rhs: Mask) -> Mask {
        Mask(self.0 | rhs.0)
    }
}

/// The full per-atom state that travels when an atom changes owner:
/// identity, pair-style inputs, and kinematics. Forces and style
/// scratch are recomputed after migration and are not carried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomRecord {
    pub tag: i64,
    pub typ: i32,
    pub q: f64,
    pub x: [f64; 3],
    pub v: [f64; 3],
    pub image: [i32; 3],
}

/// All per-atom data. Rows `0..nlocal` are owned atoms; rows
/// `nlocal..nlocal+nghost` are ghost images created by [`crate::comm`].
#[derive(Debug)]
pub struct AtomData {
    /// Positions, `[nall, 3]`.
    pub x: DualView<f64, 2>,
    /// Velocities, `[nall, 3]` (ghost rows unused).
    pub v: DualView<f64, 2>,
    /// Forces, `[nall, 3]`.
    pub f: DualView<f64, 2>,
    /// 0-based atom types, `[nall]`.
    pub typ: DualView<i32, 1>,
    /// Charges, `[nall]`.
    pub q: DualView<f64, 1>,
    /// Global atom ids (64-bit per Appendix B), `[nall]`.
    pub tag: DualView<i64, 1>,
    /// Per-type masses.
    pub mass: Vec<f64>,
    /// Periodic image flags of owned atoms (how many times each has
    /// wrapped through each face) — what LAMMPS stores to reconstruct
    /// unwrapped trajectories for diffusion observables.
    pub image: Vec<[i32; 3]>,
    pub nlocal: usize,
    pub nghost: usize,
}

impl AtomData {
    /// Create from owned-atom positions; one atom type, unit mass,
    /// velocities zero, tags sequential.
    pub fn from_positions(positions: &[[f64; 3]]) -> Self {
        let n = positions.len();
        let mut x = DualView::new("x", [n, 3]);
        {
            let xh = x.h_view_mut();
            for (i, p) in positions.iter().enumerate() {
                for (k, &pk) in p.iter().enumerate() {
                    xh.set([i, k], pk);
                }
            }
        }
        let mut tag = DualView::new("tag", [n]);
        {
            let th = tag.h_view_mut();
            for i in 0..n {
                th.set([i], i as i64 + 1);
            }
        }
        AtomData {
            x,
            v: DualView::new("v", [n, 3]),
            f: DualView::new("f", [n, 3]),
            typ: DualView::new("type", [n]),
            q: DualView::new("q", [n]),
            tag,
            mass: vec![1.0],
            image: vec![[0; 3]; n],
            nlocal: n,
            nghost: 0,
        }
    }

    /// Total rows including ghosts.
    pub fn nall(&self) -> usize {
        self.nlocal + self.nghost
    }

    /// Resize all fields to `nall` rows, preserving the first
    /// `preserve` rows. Fields last modified on the device are synced
    /// home first, so no data is lost; the result is host-modified.
    pub fn resize_all(&mut self, nall: usize, preserve: usize) {
        self.x.sync_host();
        self.v.sync_host();
        self.f.sync_host();
        self.typ.sync_host();
        self.q.sync_host();
        self.tag.sync_host();
        fn keep2(dv: &mut DualView<f64, 2>, nall: usize, preserve: usize) {
            let old: Vec<f64> = (0..preserve.min(dv.dims()[0]))
                .flat_map(|i| (0..3).map(move |k| (i, k)))
                .map(|(i, k)| dv.h_view().at([i, k]))
                .collect();
            dv.realloc([nall, 3]);
            let h = dv.h_view_mut();
            for (idx, val) in old.into_iter().enumerate() {
                h.set([idx / 3, idx % 3], val);
            }
        }
        fn keep1<T: Copy + Default>(dv: &mut DualView<T, 1>, nall: usize, preserve: usize) {
            let old: Vec<T> = (0..preserve.min(dv.dims()[0]))
                .map(|i| dv.h_view().at([i]))
                .collect();
            dv.realloc([nall]);
            let h = dv.h_view_mut();
            for (i, val) in old.into_iter().enumerate() {
                h.set([i], val);
            }
        }
        keep2(&mut self.x, nall, preserve);
        keep2(&mut self.v, nall, preserve);
        keep2(&mut self.f, nall, preserve);
        keep1(&mut self.typ, nall, preserve);
        keep1(&mut self.q, nall, preserve);
        keep1(&mut self.tag, nall, preserve);
    }

    /// Sync the fields in `mask` toward the memory space of `space`
    /// (§3.2: "simply calling sync ... will only incur the overhead of
    /// actual memory transfer if the data was last modified in the other
    /// memory space").
    pub fn sync(&mut self, space: &Space, mask: Mask) {
        if mask.contains(Mask::X) {
            self.x.sync_to(space);
        }
        if mask.contains(Mask::V) {
            self.v.sync_to(space);
        }
        if mask.contains(Mask::F) {
            self.f.sync_to(space);
        }
        if mask.contains(Mask::TYPE) {
            self.typ.sync_to(space);
        }
        if mask.contains(Mask::Q) {
            self.q.sync_to(space);
        }
        if mask.contains(Mask::TAG) {
            self.tag.sync_to(space);
        }
    }

    /// Mark the fields in `mask` as modified in the memory space of
    /// `space`.
    pub fn modified(&mut self, space: &Space, mask: Mask) {
        let dev = space.is_device();
        macro_rules! m {
            ($f:expr) => {
                if dev {
                    $f.modify_device()
                } else {
                    $f.modify_host()
                }
            };
        }
        if mask.contains(Mask::X) {
            m!(self.x);
        }
        if mask.contains(Mask::V) {
            m!(self.v);
        }
        if mask.contains(Mask::F) {
            m!(self.f);
        }
        if mask.contains(Mask::TYPE) {
            m!(self.typ);
        }
        if mask.contains(Mask::Q) {
            m!(self.q);
        }
        if mask.contains(Mask::TAG) {
            m!(self.tag);
        }
    }

    /// Snapshot owned atom `i` as a self-contained record (the payload
    /// of a migration message).
    pub fn record(&self, i: usize) -> AtomRecord {
        let x = self.x.h_view();
        let v = self.v.h_view();
        AtomRecord {
            tag: self.tag.h_view().at([i]),
            typ: self.typ.h_view().at([i]),
            q: self.q.h_view().at([i]),
            x: [x.at([i, 0]), x.at([i, 1]), x.at([i, 2])],
            v: [v.at([i, 0]), v.at([i, 1]), v.at([i, 2])],
            image: self.image[i],
        }
    }

    /// Build atom storage from records (e.g. one rank's share of a
    /// decomposed system). `masses` is the per-type mass table, which is
    /// global and therefore not part of the records.
    pub fn from_records(records: &[AtomRecord], masses: &[f64]) -> Self {
        let mut atoms = AtomData::from_positions(&[]);
        atoms.mass = masses.to_vec();
        atoms.set_records(records);
        atoms
    }

    /// Replace the owned rows with `records`, in place and in order
    /// (no ghosts afterwards). Forces are not part of a record and come
    /// back zeroed.
    pub fn set_records(&mut self, records: &[AtomRecord]) {
        self.resize_all(records.len(), 0);
        self.nlocal = records.len();
        self.nghost = 0;
        let xh = self.x.h_view_mut();
        let vh = self.v.h_view_mut();
        let th = self.tag.h_view_mut();
        let ty = self.typ.h_view_mut();
        let qh = self.q.h_view_mut();
        for (i, r) in records.iter().enumerate() {
            for k in 0..3 {
                xh.set([i, k], r.x[k]);
                vh.set([i, k], r.v[k]);
            }
            th.set([i], r.tag);
            ty.set([i], r.typ);
            qh.set([i], r.q);
        }
        self.image.clear();
        self.image.extend(records.iter().map(|r| r.image));
    }

    /// Host position of atom `i` as an array.
    #[inline]
    pub fn pos(&self, i: usize) -> [f64; 3] {
        let x = self.x.h_view();
        [x.at([i, 0]), x.at([i, 1]), x.at([i, 2])]
    }

    /// Wrap all owned positions into the box (host side), updating the
    /// periodic image flags.
    pub fn wrap_positions(&mut self, domain: &Domain) {
        let n = self.nlocal;
        let l = domain.lengths();
        let xh = self.x.h_view_mut();
        for i in 0..n {
            let mut p = [xh.at([i, 0]), xh.at([i, 1]), xh.at([i, 2])];
            let before = p;
            domain.wrap(&mut p);
            for k in 0..3 {
                // Count whole-box shifts applied by the wrap.
                self.image[i][k] += ((before[k] - p[k]) / l[k]).round() as i32;
                xh.set([i, k], p[k]);
            }
        }
    }

    /// Zero forces over all rows (host side).
    pub fn zero_forces(&mut self) {
        self.f.h_view_mut().fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_defaults() {
        let a = AtomData::from_positions(&[[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]);
        assert_eq!(a.nlocal, 2);
        assert_eq!(a.nall(), 2);
        assert_eq!(a.pos(1), [1.0, 2.0, 3.0]);
        assert_eq!(a.tag.h_view().at([0]), 1);
        assert_eq!(a.tag.h_view().at([1]), 2);
        assert_eq!(a.mass, vec![1.0]);
    }

    #[test]
    fn wrap_counts_image_flags_through_the_boundary() {
        let mut atoms = AtomData::from_positions(&[[11.5, 5.0, -0.5]]);
        let domain = Domain::cubic(10.0);
        atoms.wrap_positions(&domain);
        assert!(domain.contains(&atoms.pos(0)));
        assert_eq!(atoms.image[0], [1, 0, -1]);
        let p = atoms.pos(0);
        assert!((p[0] - 1.5).abs() < 1e-12 && (p[2] - 9.5).abs() < 1e-12);
    }

    #[test]
    fn mask_ops() {
        let m = Mask::X | Mask::F;
        assert!(m.contains(Mask::X));
        assert!(m.contains(Mask::F));
        assert!(!m.contains(Mask::V));
        assert!(Mask::ALL.contains(Mask::TAG));
    }

    #[test]
    fn resize_preserves_prefix() {
        let mut a = AtomData::from_positions(&[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]]);
        a.resize_all(5, 2);
        a.nghost = 3;
        assert_eq!(a.nall(), 5);
        assert_eq!(a.pos(0), [1.0, 1.0, 1.0]);
        assert_eq!(a.pos(1), [2.0, 2.0, 2.0]);
        assert_eq!(a.pos(4), [0.0, 0.0, 0.0]);
        assert_eq!(a.tag.h_view().at([1]), 2);
    }

    #[test]
    fn wrap_positions_moves_into_box() {
        let mut a = AtomData::from_positions(&[[11.0, -1.0, 5.0]]);
        a.wrap_positions(&Domain::cubic(10.0));
        let p = a.pos(0);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!((p[1] - 9.0).abs() < 1e-12);
        assert_eq!(p[2], 5.0);
    }

    #[test]
    fn sync_round_trip_through_device() {
        let dev = Space::device(lkk_gpusim::GpuArch::h100());
        let mut a = AtomData::from_positions(&[[1.0, 2.0, 3.0]]);
        a.sync(&dev, Mask::X);
        assert_eq!(a.x.d_view().at([0, 2]), 3.0);
        a.x.d_view_mut().set([0, 0], 9.0);
        a.sync(&Space::Threads, Mask::X);
        assert_eq!(a.pos(0), [9.0, 2.0, 3.0]);
    }
}
