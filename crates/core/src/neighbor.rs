//! Binned neighbor lists.
//!
//! Reproduces the LAMMPS neighbor machinery the paper's case studies
//! rest on: atoms (including ghosts) are binned into cells of the
//! neighbor cutoff, and each owned atom gathers neighbors from its
//! 3×3×3 bin stencil. Two list styles exist (§4.1):
//!
//! * **full** — every `i–j` pair appears in both `i`'s and `j`'s rows;
//!   forces are computed twice ("redundant computation") but each atom
//!   only writes its own row, avoiding atomics. GPU default.
//! * **half** — each pair appears once (Newton's third law); the force
//!   kernel writes both atoms' rows and needs a deconfliction strategy
//!   (`ScatterView`). CPU default.
//!
//! The list is stored as a 2-D `View` (`[atom, slot]`) so the layout
//! adapts to the execution space: rows contiguous on the host for
//! caching, interleaved on the device for coalescing (§4.1).

use crate::atom::AtomData;
use crate::domain::Domain;
use lkk_kokkos::isa::{self, Isa};
use lkk_kokkos::{parts, RowMut, Space, Triples, View, View1, View2};
use std::sync::OnceLock;

/// Neighbor list construction settings.
#[derive(Debug, Clone, Copy)]
pub struct NeighborSettings {
    /// Force cutoff.
    pub cutoff: f64,
    /// Extra skin so lists survive several steps (LAMMPS default 0.3σ).
    pub skin: f64,
    /// Build half (true) or full (false) lists.
    pub half: bool,
    /// Check for rebuild every this many steps.
    pub every: usize,
    /// Canonically sort every neighbor row by the neighbor's image
    /// position after each (re)build. Off by default: the bin-major fill
    /// order is already deterministic for a fixed decomposition, and the
    /// committed baselines pin it. Turn on (together with full lists and
    /// own-row accumulation) to make per-atom force sums independent of
    /// the decomposition — the knob the balance-equivalence tests use to
    /// compare rebalanced runs bitwise against static ones.
    pub sort_rows: bool,
}

impl NeighborSettings {
    pub fn new(cutoff: f64, skin: f64, half: bool) -> Self {
        NeighborSettings {
            cutoff,
            skin,
            half,
            every: 1,
            sort_rows: false,
        }
    }

    /// Neighbor cutoff = force cutoff + skin.
    pub fn cutneigh(&self) -> f64 {
        self.cutoff + self.skin
    }
}

/// Neighbors per [`Rows::chunk`]: the window a two-pass kernel filters
/// at a time (the pair driver's hit buffer is this long).
pub const CHUNK: usize = 128;

/// The rows of a [`NeighborList`], by value: counts, backing storage and
/// strides, the one place outside the fill that knows how `neighbors` is
/// laid out. `Copy`, and its methods take it by value, for the reason
/// [`Triples`] is: a kernel that stores into its row part or a scatter
/// handle makes the compiler reload whatever it reaches through a
/// reference and cannot prove disjoint from the store.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    counts: &'a [u32],
    neigh: &'a [u32],
    strides: [usize; 2],
}

impl<'a> Rows<'a> {
    /// Stored neighbors of atom `i`.
    #[inline(always)]
    pub fn len(self, i: usize) -> usize {
        self.counts[i] as usize
    }

    /// Windows of [`CHUNK`] that cover row `i`.
    #[inline(always)]
    pub fn chunks(self, i: usize) -> usize {
        self.len(i).div_ceil(CHUNK)
    }

    /// Row `i`, in list order.
    #[inline(always)]
    pub fn row(self, i: usize) -> Row<'a> {
        self.span(i, 0, self.len(i))
    }

    /// Window `c < chunks(i)` of row `i`: its entries `c * CHUNK..` up to
    /// [`CHUNK`] of them, in list order.
    #[inline(always)]
    pub fn chunk(self, i: usize, c: usize) -> Row<'a> {
        self.span(i, c * CHUNK, (self.len(i) - c * CHUNK).min(CHUNK))
    }

    /// Entries `first..first + len` of row `i`.
    #[inline(always)]
    fn span(self, i: usize, first: usize, len: usize) -> Row<'a> {
        let [s0, s1] = self.strides;
        let start = i * s0 + first * s1;
        Row {
            // From the first entry to the last, whatever lies between.
            run: match len {
                0 => &[],
                _ => &self.neigh[start..start + (len - 1) * s1 + 1],
            },
            step: s1,
        }
    }
}

/// One row (or window of a row) of a [`NeighborList`]: an iterator over
/// the stored indices, whose step through the storage is 1 on the host
/// layout and `nlocal` on the device layout. Consume it with `for_each` /
/// `fold` in a kernel: that is one counted loop for either layout (the
/// step is a register operand, there is no layout branch), where `next`
/// re-slices per element.
#[derive(Debug, Clone)]
pub struct Row<'a> {
    /// First entry to last entry inclusive; every `step`-th is a member.
    run: &'a [u32],
    step: usize,
}

impl Iterator for Row<'_> {
    type Item = u32;

    #[inline(always)]
    fn next(&mut self) -> Option<u32> {
        let (&j, rest) = self.run.split_first()?;
        self.run = rest.get(self.step - 1..).unwrap_or(&[]);
        Some(j)
    }

    #[inline(always)]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.run.len().div_ceil(self.step);
        (n, Some(n))
    }

    #[inline(always)]
    fn fold<B, F: FnMut(B, u32) -> B>(self, init: B, f: F) -> B {
        let Row { run, step } = self;
        let (mut acc, mut at, mut f) = (init, 0, f);
        while at < run.len() {
            acc = f(acc, run[at]);
            at += step;
        }
        acc
    }
}

/// [`Within::row`] reports `d = x_i − x_j`, pointing at the row's atom.
pub const TOWARD_I: bool = false;
/// [`Within::row`] reports `d = x_j − x_i`, pointing at the neighbor. The
/// orientation is a parameter, never a sign flipped afterwards: `-(a - b)`
/// and `b - a` differ in the sign of zero on a perfect lattice.
pub const TOWARD_J: bool = true;

/// The within-cutoff walk over a list's rows: positions through
/// [`Triples`], one branchy pass per row. By value, like [`Rows`].
#[derive(Debug, Clone, Copy)]
pub struct Within<'a> {
    rows: Rows<'a>,
    x: Triples<'a, f64>,
    cutsq: f64,
}

impl Within<'_> {
    /// Call `f(j, d, rsq)` for every stored neighbor `j` of `i` with
    /// `rsq = |d|² < cutoff²`, in list order; `d` points as `TO_J` says
    /// ([`TOWARD_I`] or [`TOWARD_J`]).
    #[inline(always)]
    pub fn row<const TO_J: bool>(self, i: usize, mut f: impl FnMut(usize, [f64; 3], f64)) {
        let xi = self.x.get(i);
        self.rows.row(i).for_each(|ju| {
            let j = ju as usize;
            let xj = self.x.get(j);
            let d = if TO_J {
                [xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]]
            } else {
                [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]]
            };
            let rsq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            if rsq < self.cutsq {
                f(j, d, rsq);
            }
        });
    }
}

/// Spatial bins over the ghost-extended region, CSR-indexed.
///
/// All backing vectors are reused across [`Bins::rebuild`] calls, so a
/// persistent `Bins` (as held by [`NeighborList`]) stops touching the
/// allocator once its capacity has peaked.
#[derive(Debug)]
pub struct Bins {
    lo: [f64; 3],
    inv_size: [f64; 3],
    nbins: [usize; 3],
    /// CSR offsets per bin, length `nbins_total + 1`.
    starts: Vec<u32>,
    /// Atom indices ordered by bin.
    atoms: Vec<u32>,
    /// Coordinate planes in the same bin order: `pos[a][k]` is coordinate
    /// `a` of atom `atoms[k]` as it was at the last [`Bins::rebuild`], bit
    /// for bit. A snapshot, not a view: it goes stale as soon as the
    /// atoms move and is valid only until the next rebuild.
    pos: [Vec<f64>; 3],
    /// Counting-sort scratch, reused across rebuilds.
    cursor: Vec<u32>,
}

impl Bins {
    /// An empty bin structure ready for [`Bins::rebuild`].
    pub fn empty() -> Bins {
        Bins {
            lo: [0.0; 3],
            inv_size: [0.0; 3],
            nbins: [1; 3],
            starts: Vec::new(),
            atoms: Vec::new(),
            pos: Default::default(),
            cursor: Vec::new(),
        }
    }

    /// Bin all `nall` atoms. The binned region covers the box extended
    /// by `cutghost` on every side.
    pub fn build(atoms: &AtomData, domain: &Domain, bin_size: f64, cutghost: f64) -> Bins {
        let mut bins = Bins::empty();
        bins.rebuild(atoms, domain, bin_size, cutghost);
        bins
    }

    /// Re-bin in place, reusing every scratch vector's capacity.
    ///
    /// # Panics
    /// If there are more than `u32::MAX` atoms: bin order, CSR offsets
    /// and neighbor rows all store atom indices as `u32`.
    pub fn rebuild(&mut self, atoms: &AtomData, domain: &Domain, bin_size: f64, cutghost: f64) {
        let nall = atoms.nall();
        assert!(
            nall <= u32::MAX as usize,
            "cannot bin {nall} atoms (owned + ghost): atom indices are stored as u32"
        );
        let lo = [
            domain.lo[0] - cutghost,
            domain.lo[1] - cutghost,
            domain.lo[2] - cutghost,
        ];
        let hi = [
            domain.hi[0] + cutghost,
            domain.hi[1] + cutghost,
            domain.hi[2] + cutghost,
        ];
        let mut nbins = [0usize; 3];
        let mut inv_size = [0f64; 3];
        for k in 0..3 {
            nbins[k] = (((hi[k] - lo[k]) / bin_size).floor() as usize).max(1);
            inv_size[k] = nbins[k] as f64 / (hi[k] - lo[k]);
        }
        self.lo = lo;
        self.inv_size = inv_size;
        self.nbins = nbins;
        let total = nbins[0] * nbins[1] * nbins[2];
        let xh = atoms.x.h_view();
        // Counting sort (all buffers capacity-reusing). The bin of an atom
        // is computed in both passes instead of being kept in an `nall`-long
        // scratch array: the second pass loads the position anyway to pack it.
        self.starts.clear();
        self.starts.resize(total + 1, 0);
        for i in 0..nall {
            let b = self.bin_index(self.bin_coords(xh.get3(i)));
            self.starts[b + 1] += 1;
        }
        for b in 0..total {
            self.starts[b + 1] += self.starts[b];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..total]);
        self.atoms.clear();
        self.atoms.resize(nall, 0);
        for plane in &mut self.pos {
            plane.clear();
            plane.resize(nall, 0.0);
        }
        for i in 0..nall {
            let p = xh.get3(i);
            let b = self.bin_index(self.bin_coords(p));
            let slot = self.cursor[b] as usize;
            self.atoms[slot] = i as u32;
            for (plane, c) in self.pos.iter_mut().zip(p) {
                plane[slot] = c;
            }
            self.cursor[b] += 1;
        }
    }

    /// The bin holding `x`; positions outside the binned region fall
    /// into the nearest edge bin.
    #[inline]
    fn bin_coords(&self, x: [f64; 3]) -> [usize; 3] {
        let mut b = [0usize; 3];
        for k in 0..3 {
            b[k] = (((x[k] - self.lo[k]) * self.inv_size[k]) as isize)
                .clamp(0, self.nbins[k] as isize - 1) as usize;
        }
        b
    }

    /// Flat CSR index of an in-range bin.
    #[inline]
    fn bin_index(&self, b: [usize; 3]) -> usize {
        (b[0] * self.nbins[1] + b[1]) * self.nbins[2] + b[2]
    }

    #[inline]
    fn bin_atoms(&self, b: [usize; 3]) -> &[u32] {
        let idx = self.bin_index(b);
        &self.atoms[self.starts[idx] as usize..self.starts[idx + 1] as usize]
    }

    /// The bins `(bx, by, zlo..=zhi)` as one range of `atoms` and of the
    /// coordinate planes: bins that differ only in `z` are adjacent in CSR
    /// order.
    #[inline(always)]
    fn z_run(&self, bx: usize, by: usize, zlo: usize, zhi: usize) -> std::ops::Range<usize> {
        let row = (bx * self.nbins[1] + by) * self.nbins[2];
        self.starts[row + zlo] as usize..self.starts[row + zhi + 1] as usize
    }

    /// Coordinate along `axis` of the face between bins `b - 1` and `b`
    /// (`b = nbins`: the upper face of the binned region).
    #[inline(always)]
    fn face(&self, axis: usize, b: usize) -> f64 {
        self.lo[axis] + b as f64 / self.inv_size[axis]
    }

    /// Skip threshold of the fill's bin pruning. Atom `i` sits in bin
    /// `bc`; a stencil bin one step away along some axes lies beyond the
    /// *interior* faces that separate it from `bc` on those axes, and the
    /// squared distances from `i` to those faces sum to `q` (evaluated
    /// like the filter's `rsq`). If `q > prune_sq(cutsq)`, no atom of
    /// that bin passes `rsq < cutsq`, so skipping the bin leaves every row
    /// as it was. Proof: `bin_coords` truncates `fl(fl(x - lo) * inv)`, so
    /// an atom binned below face `b` has `x < F + 2.1 u L` and one binned
    /// at or above it `x > F - 2.1 u L` (`F` the exact face, `u = 2^-53`,
    /// `L` the binned length; clamping into an edge bin only moves an atom
    /// further past an *exterior* face, never across an interior one).
    /// [`Bins::face`] is within `u L + u m` of `F`, `m` the largest `|lo|`
    /// or `|hi|` of the region and `L <= 2 m`. Per axis the true
    /// separation is therefore at least the face distance minus `t = 12 u
    /// m`, the separation vector at least `sqrt(q) - sqrt(3) t` long, and
    /// the few-`u` relative error of `q` and of the filter's own `rsq` is
    /// covered by the factor on `cut`.
    fn prune_sq(&self, cutsq: f64) -> f64 {
        let m = (0..3).fold(0.0, |m: f64, k| {
            m.max(self.lo[k].abs())
                .max(self.face(k, self.nbins[k]).abs())
        });
        let r = cutsq.sqrt() * (1.0 + 1e-12) + 32.0 * f64::EPSILON * m;
        r * r
    }

    /// The spatial ordering of atoms (bin-major), used for spatial
    /// sorting of atom data to improve cache locality.
    pub fn ordered_atoms(&self) -> &[u32] {
        &self.atoms
    }

    /// Collect (into `out`, reusing its capacity) the atoms in the
    /// outermost bin layer — every bin with a coordinate at 0 or
    /// `nbins-1`. Because bins are at least `bin_size` wide, binning a
    /// sub-domain with `bin_size = cutghost` makes this layer a
    /// superset of all atoms within `cutghost` of any face: the halo
    /// candidate set, found in O(surface) instead of O(N).
    ///
    /// Each atom appears exactly once (bins partition the atoms), in
    /// deterministic bin-major order.
    pub fn boundary_atoms(&self, out: &mut Vec<u32>) {
        out.clear();
        let [nx, ny, nz] = self.nbins;
        let mut take = |b: [usize; 3]| out.extend_from_slice(self.bin_atoms(b));
        for bx in 0..nx {
            if bx == 0 || bx == nx - 1 {
                // A boundary slab in x: every bin belongs to the shell.
                for by in 0..ny {
                    for bz in 0..nz {
                        take([bx, by, bz]);
                    }
                }
            } else {
                // Interior slab: only the frame of the y/z rectangle.
                for by in 0..ny {
                    if by == 0 || by == ny - 1 {
                        for bz in 0..nz {
                            take([bx, by, bz]);
                        }
                    } else {
                        take([bx, by, 0]);
                        if nz > 1 {
                            take([bx, by, nz - 1]);
                        }
                    }
                }
            }
        }
    }
}

/// Neighbor-row storage as [`NeighborList`] exposes it: one element at
/// a time ([`RowStorage::at`]) and its layout. The row format itself —
/// counts, strides, capacity, the poisoned tail — belongs to this module,
/// which alone reaches the view (`.0`); everyone else reads rows through
/// [`NeighborList::rows`] or [`NeighborList::within`]. `at` stays open
/// because it resolves the layout on each call: slow in a kernel, but
/// never wrong.
///
/// ```
/// # use lkk_core::prelude::*;
/// # let lat = Lattice::new(LatticeKind::Fcc, 1.6);
/// # let mut atoms = AtomData::from_positions(&lat.positions(5, 5, 5));
/// # let domain = lat.domain(5, 5, 5);
/// # let settings = NeighborSettings::new(2.5, 0.3, false);
/// # let _ghosts = lkk_core::comm::build_ghosts(&mut atoms, &domain, settings.cutneigh());
/// let list = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
/// let first = list.neighbors.at([0, 0]);
/// assert_eq!(first, list.rows().row(0).next().unwrap());
/// assert_eq!(list.numneigh.at([0]) as usize, list.rows().len(0));
/// ```
///
/// The storage calls that depend on the format do not compile outside
/// this module:
///
/// ```compile_fail,E0599
/// # use lkk_core::prelude::*;
/// fn counts(list: &NeighborList) -> &[u32] {
///     list.numneigh.as_slice()
/// }
/// ```
///
/// ```compile_fail,E0599
/// # use lkk_core::prelude::*;
/// fn row_stride(list: &NeighborList) -> usize {
///     list.neighbors.stride(0)
/// }
/// ```
#[derive(Debug)]
pub struct RowStorage<T, const R: usize>(View<T, R>);

impl<T: Copy, const R: usize> RowStorage<T, R> {
    /// Element `idx`.
    pub fn at(&self, idx: [usize; R]) -> T {
        self.0.at(idx)
    }

    /// The storage's layout: `Right` (contiguous rows) on hosts, `Left`
    /// (strided rows) on the device.
    pub fn layout(&self) -> lkk_kokkos::Layout {
        self.0.layout()
    }
}

/// A built neighbor list.
///
/// The list (and its [`Bins`]) is designed to be *persistent*: call
/// [`NeighborList::rebuild`] on an existing list and every buffer —
/// neighbor rows, per-atom counts, bin CSR arrays — is refilled in
/// place, reusing capacity. Once the high-water shape has been reached
/// no rebuild touches the allocator; [`NeighborList::grow_count`]
/// counts the (rare) capacity growths so tests can assert steady-state
/// behavior.
#[derive(Debug)]
pub struct NeighborList {
    pub half: bool,
    pub cutneigh: f64,
    /// `[nlocal, maxneigh]` neighbor indices; layout per execution space.
    pub neighbors: RowStorage<u32, 2>,
    /// Number of neighbors per owned atom.
    pub numneigh: RowStorage<u32, 1>,
    pub maxneigh: usize,
    pub nlocal: usize,
    /// Total stored pairs (`Σ numneigh`).
    pub total_pairs: u64,
    /// Persistent spatial bins, reused across rebuilds.
    bins: Bins,
    /// Row-sort scratch (one row of indices), reused across rebuilds.
    sort_scratch: Vec<u32>,
    /// Number of heap growths across rebuilds (0 in steady state).
    grow_count: u64,
    /// `working_set_bytes(2048)` of the current list, once asked for.
    ws2048: OnceLock<f64>,
}

impl NeighborList {
    /// Build a neighbor list for the owned atoms. Ghosts must already
    /// exist out to `settings.cutneigh()`.
    pub fn build(
        atoms: &AtomData,
        domain: &Domain,
        settings: &NeighborSettings,
        space: &Space,
    ) -> NeighborList {
        let mut list = NeighborList {
            half: settings.half,
            cutneigh: settings.cutneigh(),
            neighbors: RowStorage(View::for_space("neighlist", [0, 0], space)),
            numneigh: RowStorage(View::for_space("numneigh", [0], space)),
            maxneigh: 0,
            nlocal: 0,
            total_pairs: 0,
            bins: Bins::empty(),
            sort_scratch: Vec::new(),
            grow_count: 0,
            ws2048: OnceLock::new(),
        };
        // The initial build's allocations are construction, not churn.
        list.rebuild(atoms, domain, settings, space);
        list.grow_count = 0;
        list
    }

    /// Heap growths since construction (0 in steady state).
    pub fn grow_count(&self) -> u64 {
        self.grow_count
    }

    /// The reader every consumer of the rows goes through.
    pub fn rows(&self) -> Rows<'_> {
        let (counts, neigh) = (&self.numneigh.0, &self.neighbors.0);
        Rows {
            counts: counts.as_slice(),
            neigh: neigh.as_slice(),
            strides: [neigh.stride(0), neigh.stride(1)],
        }
    }

    /// The stored pairs closer than `cutoff`, positions read from `x`
    /// (an `[nall, 3]` view of either layout).
    pub fn within<'a>(&'a self, x: &'a View2<f64>, cutoff: f64) -> Within<'a> {
        Within {
            rows: self.rows(),
            x: x.triples(),
            cutsq: cutoff * cutoff,
        }
    }

    /// Rebuild in place, reusing the neighbor/count/bin buffers.
    ///
    /// Identical logical behavior to [`NeighborList::build`] (same
    /// row-capacity estimate, same overflow-retry sequence, same stored
    /// list), but the retry loop grows the existing views in place
    /// instead of freeing and reallocating them.
    pub fn rebuild(
        &mut self,
        atoms: &AtomData,
        domain: &Domain,
        settings: &NeighborSettings,
        space: &Space,
    ) {
        let nlocal = atoms.nlocal;
        let cutneigh = settings.cutneigh();
        let cutsq = cutneigh * cutneigh;
        self.bins.rebuild(atoms, domain, cutneigh, cutneigh);
        // Initial per-row capacity from density estimate.
        let density = atoms.nall() as f64 / {
            let l = domain.lengths();
            (l[0] + 2.0 * cutneigh) * (l[1] + 2.0 * cutneigh) * (l[2] + 2.0 * cutneigh)
        };
        let sphere = 4.0 / 3.0 * std::f64::consts::PI * cutneigh.powi(3) * density;
        let guess = (sphere * if settings.half { 0.7 } else { 1.4 }) as usize + 8;
        let mut maxneigh = guess.max(8);

        // A space change (different preferred layout) cannot reuse the
        // stored strides; rebuild the views from scratch. Never taken
        // in a steady-state run loop.
        if self.neighbors.layout() != lkk_kokkos::Layout::for_space(space) {
            self.neighbors.0 = View::for_space("neighlist", [0, 0], space);
            self.numneigh.0 = View::for_space("numneigh", [0], space);
        }

        let isa = isa::active();
        loop {
            // Rows are read up to `numneigh[i]`, which the fill writes
            // along with those slots: nothing reads the stale remainder.
            let mut grew = self
                .neighbors
                .0
                .realloc_without_initializing([nlocal, maxneigh]);
            grew |= self.numneigh.0.realloc([nlocal]);
            if grew {
                self.grow_count += 1;
            }
            #[cfg(debug_assertions)]
            self.neighbors.0.fill(u32::MAX);
            let (needed, total_pairs) = Self::fill(
                atoms,
                &self.bins,
                cutsq,
                settings.half,
                nlocal,
                maxneigh,
                &mut self.neighbors.0,
                &mut self.numneigh.0,
                space,
                isa,
            );
            if needed > maxneigh {
                // Overflow: grow in place and refill.
                maxneigh = needed + needed / 4 + 4;
                continue;
            }
            self.half = settings.half;
            self.cutneigh = cutneigh;
            self.maxneigh = maxneigh;
            self.nlocal = nlocal;
            self.total_pairs = total_pairs;
            if settings.sort_rows {
                self.sort_rows_canonical(atoms);
            }
            self.ws2048 = OnceLock::new();
            return;
        }
    }

    /// Reorder every neighbor row by the neighbor's *image position*
    /// ((x, y, z) lexicographic under `total_cmp`). Within a cutoff
    /// smaller than half the box, each neighbor of atom `i` appears at
    /// a unique periodic image, and the comm layer produces that image
    /// coordinate bit-for-bit regardless of which rank owns whom — so
    /// the sorted row (and with it any own-row accumulation over the
    /// row) is a pure function of the physical configuration, not of
    /// the decomposition. See `docs/comm.md` (balancer determinism).
    fn sort_rows_canonical(&mut self, atoms: &AtomData) {
        let xh = atoms.x.h_view();
        let mut row = std::mem::take(&mut self.sort_scratch);
        for i in 0..self.nlocal {
            row.clear();
            row.extend(self.rows().row(i));
            row.sort_unstable_by(|&a, &b| {
                let pa = xh.get3(a as usize);
                let pb = xh.get3(b as usize);
                pa[0]
                    .total_cmp(&pb[0])
                    .then_with(|| pa[1].total_cmp(&pb[1]))
                    .then_with(|| pa[2].total_cmp(&pb[2]))
            });
            for (s, &j) in row.iter().enumerate() {
                self.neighbors.0.set([i, s], j);
            }
        }
        self.sort_scratch = row;
    }

    /// Fill pass. Returns `(max_required, total_stored_pairs)`; the row
    /// capacity check *and* the `Σ numneigh` total come out of the same
    /// parallel reduction (tuple-joined), so the build has no serial
    /// tail. `max_required > maxneigh` means some row overflowed.
    ///
    /// `bins` must have been rebuilt from these `atoms` (its coordinate
    /// planes are what the distances are computed from). One work item
    /// per owned atom, each [`fill_atom`] instantiated for `isa`.
    #[expect(clippy::too_many_arguments, reason = "one launch's inputs and outputs")]
    fn fill(
        atoms: &AtomData,
        bins: &Bins,
        cutsq: f64,
        half: bool,
        nlocal: usize,
        maxneigh: usize,
        neighbors: &mut View2<u32>,
        numneigh: &mut View1<u32>,
        space: &Space,
        isa: Isa,
    ) -> (usize, u64) {
        let fill = Fill {
            x: atoms.x.h_view().triples(),
            bins,
            cutsq,
            prune_sq: bins.prune_sq(cutsq),
            half,
            nlocal,
            maxneigh,
        };
        let rows = (
            neighbors.rows_mut(),
            parts::elements(numneigh.as_mut_slice()),
        );
        space.parallel_reduce_parts(
            "NeighborBuild",
            nlocal,
            rows,
            (0usize, 0u64),
            |i, (row, count)| isa.call(fill_atom, (&fill, i, row, count)),
            |a, b| (a.0.max(b.0), a.1 + b.1),
        )
    }

    /// [`Self::working_set_bytes`]`(2048)` of the current list, computed
    /// on the first query after a rebuild and served from the cache until
    /// the next one (the list is immutable in between). Only the device
    /// cost model asks, so a host space never pays for the sample.
    pub fn working_set_bytes_cached(&self) -> f64 {
        *self.ws2048.get_or_init(|| self.working_set_bytes(2048))
    }

    /// Measured per-block neighbor working set: the average number of
    /// *distinct* atoms referenced by a block of `block` consecutive
    /// owned atoms, times 24 bytes (one coordinate triple). This feeds
    /// the L1 working-set term of the device cost model.
    pub fn working_set_bytes(&self, block: usize) -> f64 {
        if self.nlocal == 0 {
            return 0.0;
        }
        let block = block.max(1);
        let nblocks = self.nlocal.div_ceil(block);
        // Sample up to 16 blocks evenly.
        let step = nblocks.div_ceil(16).max(1);
        let rows = self.rows();
        // One bit per binned (owned or ghost) atom, which every stored index
        // is; distinct atoms = set bits.
        let mut seen = vec![0u64; self.bins.atoms.len().div_ceil(64)];
        let mut total = 0usize;
        let mut sampled = 0usize;
        for b in (0..nblocks).step_by(step) {
            seen.fill(0);
            let start = b * block;
            let end = (start + block).min(self.nlocal);
            for i in start..end {
                seen[i / 64] |= 1 << (i % 64);
                rows.row(i)
                    .for_each(|j| seen[j as usize / 64] |= 1 << (j % 64));
            }
            total += seen.iter().map(|w| w.count_ones() as usize).sum::<usize>();
            sampled += 1;
        }
        (total as f64 / sampled as f64) * 24.0
    }

    /// Average neighbors per atom.
    pub fn avg_neighbors(&self) -> f64 {
        if self.nlocal == 0 {
            0.0
        } else {
            self.total_pairs as f64 / self.nlocal as f64
        }
    }
}

/// What every work item of [`NeighborList::fill`] reads.
struct Fill<'a> {
    x: Triples<'a, f64>,
    bins: &'a Bins,
    cutsq: f64,
    prune_sq: f64,
    half: bool,
    nlocal: usize,
    maxneigh: usize,
}

/// Row `i` of the list into its parts, `row` and `stored`:
/// `(neighbors found, neighbors stored)`.
///
/// Candidates are visited in stencil order (x, then y, ascending) × CSR
/// order within each z-run, skipping only bins that [`Bins::prune_sq`]
/// proves empty of neighbors, so rows are element for element those of
/// the plain 27-bin walk (`fill_reference`). Written once and
/// instantiated per instruction set through [`Isa::call`]: the distance
/// filter is the loop that pays for wider lanes.
#[inline(always)]
fn fill_atom((f, i, mut row, stored): (&Fill<'_>, usize, RowMut<u32>, &mut u32)) -> (usize, u64) {
    /// Candidates per pass of the filter: one bit of the hit mask each.
    const LANES: usize = u64::BITS as usize;
    // Locals, so the row stores cannot make the compiler reload them.
    let (x, bins, cutsq, prune_sq) = (f.x, f.bins, f.cutsq, f.prune_sq);
    let (half, nlocal, maxneigh) = (f.half, f.nlocal, f.maxneigh);
    let xi = x.get(i);
    let bc = bins.bin_coords(xi);
    // Squared distance from `xi` to the bins one step below, level with
    // and one step above its own along `axis` (the entry toward a bin that
    // does not exist is never used).
    let gaps = |axis: usize| {
        let below = xi[axis] - bins.face(axis, bc[axis]);
        let above = bins.face(axis, bc[axis] + 1) - xi[axis];
        [below * below, 0.0, above * above]
    };
    let [gx, gy, gz] = [gaps(0), gaps(1), gaps(2)];
    let [nx, ny, nz] = bins.nbins;
    let mut count = 0usize;
    for bx in bc[0].saturating_sub(1)..=(bc[0] + 1).min(nx - 1) {
        for by in bc[1].saturating_sub(1)..=(bc[1] + 1).min(ny - 1) {
            let dxy = gx[bx + 1 - bc[0]] + gy[by + 1 - bc[1]];
            if dxy > prune_sq {
                continue;
            }
            let zlo = bc[2] - usize::from(bc[2] > 0 && dxy + gz[0] <= prune_sq);
            let zhi = bc[2] + usize::from(bc[2] + 1 < nz && dxy + gz[2] <= prune_sq);
            let run = bins.z_run(bx, by, zlo, zhi);
            for base in run.clone().step_by(LANES) {
                let chunk = base..(base + LANES).min(run.end);
                let [px, py, pz] = [0, 1, 2].map(|axis| &bins.pos[axis][chunk.clone()]);
                let idx = &bins.atoms[chunk];
                // Phase 1: branch-free distance filter into a bit mask.
                let mut hits = 0u64;
                for k in 0..idx.len() {
                    let d = [px[k] - xi[0], py[k] - xi[1], pz[k] - xi[2]];
                    let rsq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    hits |= u64::from(rsq < cutsq) << k;
                }
                // Phase 2: self and half-list ownership, on the minority
                // of candidates that passed, in ascending order.
                while hits != 0 {
                    let k = hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let ju = idx[k];
                    let j = ju as usize;
                    if j == i {
                        continue;
                    }
                    if half {
                        // Half-list ownership rule: local pairs stored on
                        // the lower index; ghost pairs on coordinate order.
                        if j < nlocal {
                            if j < i {
                                continue;
                            }
                        } else {
                            let xj = [px[k], py[k], pz[k]];
                            let keep = xj[2] > xi[2]
                                || (xj[2] == xi[2] && xj[1] > xi[1])
                                || (xj[2] == xi[2] && xj[1] == xi[1] && xj[0] > xi[0]);
                            if !keep {
                                continue;
                            }
                        }
                    }
                    // Past `maxneigh` slots the row is full: count only.
                    if let Some(slot) = row.get_mut(count) {
                        *slot = ju;
                    }
                    count += 1;
                }
            }
        }
    }
    let kept = count.min(maxneigh);
    *stored = kept as u32;
    (count, kept as u64)
}

/// Spatially reorder the *owned* atoms into bin-major order (LAMMPS'
/// `atom_modify sort`): after sorting, atoms that are close in space
/// are close in memory, which is what makes the per-SM neighbor
/// working set fit in cache (§4.1 / Fig. 3). Must be called between
/// neighbor rebuilds (it invalidates ghost indices and the list).
/// Returns the permutation applied (new index → old index).
pub fn spatial_sort(atoms: &mut AtomData, domain: &Domain, bin_size: f64) -> Vec<u32> {
    let nlocal = atoms.nlocal;
    // Bin owned atoms only (strip ghosts first — they are rebuilt).
    atoms.resize_all(nlocal, nlocal);
    atoms.nghost = 0;
    let bins = Bins::build(atoms, domain, bin_size, 0.0);
    let order: Vec<u32> = bins.ordered_atoms().to_vec();
    debug_assert_eq!(order.len(), nlocal);
    // Apply the permutation to every per-atom field (host side).
    let perm = |v: &mut Vec<f64>, stride: usize| {
        let old = v.clone();
        for (new_i, &old_i) in order.iter().enumerate() {
            for k in 0..stride {
                v[new_i * stride + k] = old[old_i as usize * stride + k];
            }
        }
    };
    // DualView fields: operate on host mirrors then mark modified.
    for dv in [&mut atoms.x, &mut atoms.v, &mut atoms.f] {
        let mut flat: Vec<f64> = (0..nlocal)
            .flat_map(|i| (0..3).map(move |k| (i, k)))
            .map(|(i, k)| dv.h_view().at([i, k]))
            .collect();
        perm(&mut flat, 3);
        let h = dv.h_view_mut();
        for i in 0..nlocal {
            for k in 0..3 {
                h.set([i, k], flat[i * 3 + k]);
            }
        }
    }
    {
        let old: Vec<i32> = (0..nlocal).map(|i| atoms.typ.h_view().at([i])).collect();
        let h = atoms.typ.h_view_mut();
        for (new_i, &old_i) in order.iter().enumerate() {
            h.set([new_i], old[old_i as usize]);
        }
    }
    {
        let old: Vec<f64> = (0..nlocal).map(|i| atoms.q.h_view().at([i])).collect();
        let h = atoms.q.h_view_mut();
        for (new_i, &old_i) in order.iter().enumerate() {
            h.set([new_i], old[old_i as usize]);
        }
    }
    {
        let old: Vec<i64> = (0..nlocal).map(|i| atoms.tag.h_view().at([i])).collect();
        let h = atoms.tag.h_view_mut();
        for (new_i, &old_i) in order.iter().enumerate() {
            h.set([new_i], old[old_i as usize]);
        }
    }
    let old_image = atoms.image.clone();
    for (new_i, &old_i) in order.iter().enumerate() {
        atoms.image[new_i] = old_image[old_i as usize];
    }
    order
}

/// Largest squared displacement of owned atoms since `x_old`; the
/// rebuild trigger is `max_disp_sq > (skin/2)²`. Reduced on `space`
/// (the check runs every step): a maximum is exact in any order, so the
/// value does not depend on whether or how the reduction forks, and it
/// is not a launch of the modelled program.
pub fn max_displacement_sq(
    atoms: &AtomData,
    x_old: &[[f64; 3]],
    domain: &Domain,
    space: &Space,
) -> f64 {
    let x = atoms.x.h_view().triples();
    space.reduce_unlogged(
        x_old.len().min(atoms.nlocal),
        0.0,
        |i| domain.min_image_dsq(&x.get(i), &x_old[i]),
        f64::max,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::build_ghosts;
    use crate::lattice::{Lattice, LatticeKind};

    fn lj_melt(n: usize) -> (AtomData, Domain) {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let positions = lat.positions(n, n, n);
        let domain = lat.domain(n, n, n);
        let atoms = AtomData::from_positions(&positions);
        (atoms, domain)
    }

    /// Brute-force pair count within cutoff using minimum image.
    fn brute_pairs(atoms: &AtomData, domain: &Domain, cut: f64) -> u64 {
        let n = atoms.nlocal;
        let mut count = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if domain.min_image_dsq(&atoms.pos(i), &atoms.pos(j)) < cut * cut {
                    count += 1;
                }
            }
        }
        count
    }

    /// The 27-bin walk with the ownership rule ahead of the distance
    /// test and positions gathered through `get3`: the fill kernel as it
    /// was before the z-run rewrite, kept as the oracle for list identity.
    #[expect(clippy::too_many_arguments, reason = "same inputs as `fill`")]
    fn fill_reference(
        atoms: &AtomData,
        bins: &Bins,
        cutsq: f64,
        half: bool,
        nlocal: usize,
        maxneigh: usize,
        neighbors: &mut View2<u32>,
        numneigh: &mut View1<u32>,
    ) -> (usize, u64) {
        let xh = atoms.x.h_view();
        let (mut needed, mut total) = (0usize, 0u64);
        for i in 0..nlocal {
            let xi = xh.get3(i);
            let bc = bins.bin_coords(xi).map(|b| b as isize);
            let mut count = 0usize;
            for dx in -1isize..=1 {
                for dy in -1isize..=1 {
                    for dz in -1isize..=1 {
                        let b = [bc[0] + dx, bc[1] + dy, bc[2] + dz];
                        if b.iter()
                            .zip(&bins.nbins)
                            .any(|(&bb, &n)| bb < 0 || bb >= n as isize)
                        {
                            continue;
                        }
                        for &ju in bins.bin_atoms(b.map(|c| c as usize)) {
                            let j = ju as usize;
                            if j == i {
                                continue;
                            }
                            let xj = xh.get3(j);
                            if half {
                                if j < nlocal {
                                    if j < i {
                                        continue;
                                    }
                                } else {
                                    let keep = xj[2] > xi[2]
                                        || (xj[2] == xi[2] && xj[1] > xi[1])
                                        || (xj[2] == xi[2] && xj[1] == xi[1] && xj[0] > xi[0]);
                                    if !keep {
                                        continue;
                                    }
                                }
                            }
                            let d = [xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]];
                            let rsq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                            if rsq < cutsq {
                                if count < maxneigh {
                                    neighbors.set([i, count], ju);
                                }
                                count += 1;
                            }
                        }
                    }
                }
            }
            let stored = count.min(maxneigh);
            numneigh.set([i], stored as u32);
            needed = needed.max(count);
            total += stored as u64;
        }
        (needed, total)
    }

    /// The instantiations of the fill kernel this host can run: the
    /// baseline, and what `rebuild` picks when that is something else.
    fn instantiations() -> Vec<Isa> {
        let mut all = vec![Isa::baseline()];
        if isa::active() != Isa::baseline() {
            all.push(isa::active());
        }
        all
    }

    #[test]
    fn oracles_cover_the_instantiation_a_rebuild_picks() {
        let names: Vec<&str> = instantiations().iter().map(|isa| isa.name()).collect();
        // Shown by `scripts/ci.sh` (`--nocapture`).
        eprintln!(
            "neighbor fill instantiations under test: {}",
            names.join(", ")
        );
        assert_eq!(names[0], "baseline");
        assert_eq!(names.last(), Some(&isa::active().name()));
    }

    /// Fill the same bins with the kernel and with the oracle, half and
    /// full, in every space and under every instantiation, at row
    /// capacity `maxneigh`, and require the same `needed`, the same stored
    /// total, the same counts and the same row prefixes. Returns the
    /// longest full-list row.
    fn assert_fill_matches_reference(
        atoms: &AtomData,
        bins: &Bins,
        cut: f64,
        maxneigh: usize,
    ) -> usize {
        let nlocal = atoms.nlocal;
        let mut longest = 0;
        for half in [true, false] {
            let mut want_rows = View2::<u32>::new("want", [nlocal, maxneigh]);
            let mut want_counts = View1::<u32>::new("want_counts", [nlocal]);
            let want = fill_reference(
                atoms,
                bins,
                cut * cut,
                half,
                nlocal,
                maxneigh,
                &mut want_rows,
                &mut want_counts,
            );
            longest = longest.max(want.0);
            for space in [
                Space::Serial,
                Space::Threads,
                Space::device(lkk_gpusim::GpuArch::h100()),
            ] {
                for isa in instantiations() {
                    let mut rows = View::for_space("rows", [nlocal, maxneigh], &space);
                    let mut counts = View::for_space("counts", [nlocal], &space);
                    let got = NeighborList::fill(
                        atoms,
                        bins,
                        cut * cut,
                        half,
                        nlocal,
                        maxneigh,
                        &mut rows,
                        &mut counts,
                        &space,
                        isa,
                    );
                    let case = format!("half={half} {space:?} {} maxneigh={maxneigh}", isa.name());
                    assert_eq!(got, want, "(needed, stored pairs): {case}");
                    for i in 0..nlocal {
                        let nn = want_counts.at([i]);
                        assert_eq!(counts.at([i]), nn, "numneigh[{i}]: {case}");
                        for s in 0..nn as usize {
                            assert_eq!(
                                rows.at([i, s]),
                                want_rows.at([i, s]),
                                "row {i} slot {s}: {case}"
                            );
                        }
                    }
                }
            }
        }
        longest
    }

    /// Deterministic displacement of every position by up to `amp` per axis.
    fn jitter(positions: &mut [[f64; 3]], amp: f64) {
        let mut s = 987654321u64;
        for p in positions {
            for x in p {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *x += amp * ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            }
        }
    }

    #[test]
    fn fill_matches_reference_in_a_cubic_box_and_under_forced_overflow() {
        // 2 048 owned atoms: `Threads` and the device fork at this size.
        let (mut atoms, domain) = lj_melt(8);
        let cut = 2.8;
        build_ghosts(&mut atoms, &domain, cut);
        let bins = Bins::build(&atoms, &domain, cut, cut);
        let longest = assert_fill_matches_reference(&atoms, &bins, cut, 128);
        assert!(longest <= 128, "128 slots were meant to hold every row");
        // Truncated rows and the reported requirement must match too.
        assert_fill_matches_reference(&atoms, &bins, cut, longest / 2 - 3);
    }

    #[test]
    fn fill_matches_reference_in_an_elongated_box() {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut positions = lat.positions(16, 4, 4);
        let domain = lat.domain(16, 4, 4);
        jitter(&mut positions, 0.2);
        for p in &mut positions {
            domain.wrap(p);
        }
        let mut atoms = AtomData::from_positions(&positions);
        let cut = 2.8;
        build_ghosts(&mut atoms, &domain, cut);
        let bins = Bins::build(&atoms, &domain, cut, cut);
        assert_fill_matches_reference(&atoms, &bins, cut, 128);
    }

    #[test]
    fn fill_matches_reference_when_the_stencil_is_clipped_to_one_bin() {
        // A slab thinner than one bin, binned without a ghost margin: one
        // bin along z, so the stencil is clipped on both sides.
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut positions = lat.positions(6, 6, 1);
        let domain = lat.domain(6, 6, 1);
        jitter(&mut positions, 0.1);
        let atoms = AtomData::from_positions(&positions);
        let cut = 2.8;
        let bins = Bins::build(&atoms, &domain, cut, 0.0);
        assert_eq!(bins.nbins[2], 1);
        assert_fill_matches_reference(&atoms, &bins, cut, 128);
    }

    #[test]
    fn fill_matches_reference_with_atoms_on_the_box_faces() {
        // Lattice sites at coordinate 0 sit on the low faces and their
        // periodic images on the high faces; add atoms at the high
        // corner and outside the binned region (clamped to the edge bins).
        let (mut atoms, domain) = lj_melt(4);
        let cut = 2.8;
        build_ghosts(&mut atoms, &domain, cut);
        let mut positions: Vec<[f64; 3]> = (0..atoms.nall()).map(|i| atoms.pos(i)).collect();
        let (lo, hi) = (domain.lo, domain.hi);
        positions.extend([
            hi,
            [hi[0], lo[1], lo[2]],
            [lo[0] - cut, lo[1] - cut, lo[2] - cut],
            [hi[0] + cut, hi[1] + cut, hi[2] + cut],
            [hi[0] + cut + 0.5, hi[1], lo[2] - cut - 0.5],
        ]);
        // Every atom owned, so each is a row of the list as well as a candidate.
        let atoms = AtomData::from_positions(&positions);
        let bins = Bins::build(&atoms, &domain, cut, cut);
        assert_fill_matches_reference(&atoms, &bins, cut, 160);
    }

    #[test]
    fn fill_matches_reference_when_a_z_run_spans_several_chunks() {
        // Same system as `overflow_retry_produces_same_list`: 4 bins per
        // axis of ~54 atoms each, so a three-bin z-run holds ~160
        // candidates, more than one pass of the distance filter takes.
        let (mut atoms, domain) = lj_melt(5);
        let cut = 3.8;
        build_ghosts(&mut atoms, &domain, cut);
        let bins = Bins::build(&atoms, &domain, cut, cut);
        let longest_run = (0..bins.nbins[0])
            .flat_map(|bx| (0..bins.nbins[1]).map(move |by| (bx, by)))
            .map(|(bx, by)| bins.z_run(bx, by, 0, 2).len())
            .max()
            .unwrap();
        assert!(
            longest_run > 128,
            "longest z-run {longest_run} fits one pass"
        );
        assert_fill_matches_reference(&atoms, &bins, cut, 256);
    }

    /// `x` moved by `k` representable values (away from zero for `k > 0`).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The pruned fill against the plain 27-bin walk on boxes it was
        /// not tuned on: any aspect ratio and density, a box far from the
        /// origin (coarse coordinates), atoms outside the binned region
        /// (clamped into edge bins, whose outer faces must not bound a
        /// skip), and pairs whose separation straddles the cutoff by a few
        /// representable values with one partner on an interior bin face,
        /// on either side of it.
        #[test]
        fn pruned_fill_matches_reference_on_random_boxes(
            lens in proptest::prop::array::uniform3(3.0f64..14.0),
            origin in proptest::prop::sample::select(vec![0.0, -37.5, 1.0e4, -3.0e7]),
            cut in 0.9f64..3.2,
            ghost_margin in proptest::prop::sample::select(vec![0.0, 1.0]),
            n in 30usize..400,
            seed in 0u64..1 << 48,
        ) {
            let mut rng = proptest::TestRng::deterministic(&seed.to_string());
            let lo = [origin, origin + 1.0, origin - 2.0];
            let hi = [lo[0] + lens[0], lo[1] + lens[1], lo[2] + lens[2]];
            let domain = Domain::new(lo, hi);
            let cutghost = ghost_margin * cut;
            // Uniform atoms over the binned region and a shell beyond it.
            let mut positions: Vec<[f64; 3]> = (0..n)
                .map(|_| {
                    std::array::from_fn(|a| {
                        let span = lens[a] + 2.0 * cutghost + 1.0;
                        lo[a] - cutghost - 0.5 + span * rng.unit_f64()
                    })
                })
                .collect();
            // Geometry only: faces do not depend on the atoms binned.
            let geometry = Bins::build(&AtomData::from_positions(&positions), &domain, cut, cutghost);
            for pair in 0..24 {
                let axis = pair % 3;
                let mut xi: [f64; 3] =
                    std::array::from_fn(|a| lo[a] + lens[a] * rng.unit_f64());
                if geometry.nbins[axis] > 1 {
                    let b = 1 + rng.next_u64() as usize % (geometry.nbins[axis] - 1);
                    let face = geometry.face(axis, b);
                    let side = if pair % 2 == 0 { 1.0 } else { -1.0 };
                    let step = |rng: &mut proptest::TestRng| (rng.next_u64() % 9) as i64 - 4;
                    let mut xj = xi;
                    xj[axis] = ulps(face, step(&mut rng));
                    xi[axis] = ulps(face + side * cut, step(&mut rng));
                    positions.push(xj);
                }
                positions.push(xi);
            }
            // Every atom owned, so each is a row as well as a candidate.
            let atoms = AtomData::from_positions(&positions);
            let bins = Bins::build(&atoms, &domain, cut, cutghost);
            assert_fill_matches_reference(&atoms, &bins, cut, 96);
        }
    }

    /// `working_set_bytes` as it was before the bitmap: a hash set per block.
    #[expect(
        clippy::disallowed_types,
        reason = "test oracle: the set is only inserted into and counted, never iterated"
    )]
    fn working_set_bytes_hashset(list: &NeighborList, block: usize) -> f64 {
        use std::collections::HashSet;
        let nblocks = list.nlocal.div_ceil(block);
        let step = nblocks.div_ceil(16).max(1);
        let mut total = 0usize;
        let mut sampled = 0usize;
        let mut set = HashSet::new();
        let mut b = 0;
        while b < nblocks {
            set.clear();
            let start = b * block;
            let end = (start + block).min(list.nlocal);
            for i in start..end {
                set.insert(i as u32);
                for s in 0..list.numneigh.at([i]) as usize {
                    set.insert(list.neighbors.at([i, s]));
                }
            }
            total += set.len();
            sampled += 1;
            b += step;
        }
        (total as f64 / sampled as f64) * 24.0
    }

    #[test]
    fn working_set_bitmap_matches_hash_set_to_the_bit() {
        // Jittered, so rows differ in length on both layouts.
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut positions = lat.positions(8, 8, 8);
        jitter(&mut positions, 0.3);
        let domain = lat.domain(8, 8, 8);
        let mut atoms = AtomData::from_positions(&positions);
        atoms.wrap_positions(&domain);
        build_ghosts(&mut atoms, &domain, 2.8);
        for half in [true, false] {
            let settings = NeighborSettings::new(2.5, 0.3, half);
            for space in [Space::Serial, Space::device(lkk_gpusim::GpuArch::h100())] {
                let list = NeighborList::build(&atoms, &domain, &settings, &space);
                assert_eq!(
                    list.neighbors.layout() == lkk_kokkos::Layout::Left,
                    space.is_device()
                );
                let counts = list.numneigh.0.as_slice();
                assert!(counts.iter().min() < counts.iter().max());
                for block in [1, 32, 256, 2048] {
                    assert_eq!(
                        list.working_set_bytes(block).to_bits(),
                        working_set_bytes_hashset(&list, block).to_bits(),
                        "block {block}, half {half}, {:?}",
                        list.neighbors.layout()
                    );
                }
                assert_eq!(
                    list.working_set_bytes_cached().to_bits(),
                    list.working_set_bytes(2048).to_bits()
                );
            }
        }
    }

    /// The geometry of `pair::tests::rows_longer_than_a_chunk_see_hits_only`
    /// (cutoff 3.8: full rows of ~240 entries), on the contiguous and the
    /// strided layout: `rows()` yields exactly `neighbors.at([i, s])` for
    /// `s < numneigh[i]`, whole rows and every `CHUNK` window of them,
    /// through `next` and through `fold`; `within` reports those of them
    /// inside the cutoff, displacement as asked.
    #[test]
    fn rows_yield_the_stored_entries_on_both_layouts() {
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut positions = lat.positions(6, 6, 6);
        jitter(&mut positions, 0.2);
        let domain = lat.domain(6, 6, 6);
        let mut atoms = AtomData::from_positions(&positions);
        atoms.wrap_positions(&domain);
        let settings = NeighborSettings::new(3.8, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        for space in [Space::Serial, Space::device(lkk_gpusim::GpuArch::h100())] {
            let list = NeighborList::build(&atoms, &domain, &settings, &space);
            assert_eq!(
                list.neighbors.layout() == lkk_kokkos::Layout::Left,
                space.is_device()
            );
            let rows = list.rows();
            let walk = list.within(atoms.x.h_view(), 3.8);
            let mut longest = 0;
            for i in 0..list.nlocal {
                let want: Vec<u32> = (0..list.numneigh.at([i]) as usize)
                    .map(|s| list.neighbors.at([i, s]))
                    .collect();
                longest = longest.max(want.len());
                assert_eq!(rows.len(i), want.len());
                assert_eq!(rows.row(i).size_hint(), (want.len(), Some(want.len())));
                // `collect` drives `next`, `for_each` drives `fold`.
                assert_eq!(rows.row(i).collect::<Vec<_>>(), want, "row {i}");
                let mut folded = Vec::new();
                rows.row(i).for_each(|j| folded.push(j));
                assert_eq!(folded, want, "row {i} folded");
                assert_eq!(rows.chunks(i), want.len().div_ceil(CHUNK));
                for (c, window) in want.chunks(CHUNK).enumerate() {
                    assert_eq!(rows.chunk(i, c).collect::<Vec<_>>(), window);
                    let mut folded = Vec::new();
                    rows.chunk(i, c).for_each(|j| folded.push(j));
                    assert_eq!(folded, window, "row {i} window {c} folded");
                }
                let xi = atoms.pos(i);
                let mut inside = want.iter().filter_map(|&j| {
                    let xj = atoms.pos(j as usize);
                    let d = [xi[0] - xj[0], xi[1] - xj[1], xi[2] - xj[2]];
                    let rsq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
                    (rsq < 3.8 * 3.8).then_some((j as usize, d, rsq))
                });
                walk.row::<TOWARD_I>(i, |j, d, rsq| {
                    assert_eq!(Some((j, d, rsq)), inside.next(), "row {i}");
                });
                assert_eq!(inside.next(), None, "row {i}: walk stopped early");
                let mut toward_j = Vec::new();
                walk.row::<TOWARD_J>(i, |j, d, _| toward_j.push((j, d)));
                for (j, d) in toward_j {
                    let xj = atoms.pos(j);
                    assert_eq!(d, [xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]]);
                }
            }
            assert!(longest > CHUNK, "longest row {longest} fits one window");
        }
        // An atom without neighbors has an empty row and no window.
        let lone = AtomData::from_positions(&[[1.0, 1.0, 1.0]]);
        let list = NeighborList::build(
            &lone,
            &Domain::cubic(10.0),
            &NeighborSettings::new(2.5, 0.3, false),
            &Space::Serial,
        );
        assert_eq!((list.rows().len(0), list.rows().chunks(0)), (0, 0));
        assert_eq!(list.rows().row(0).next(), None);
    }

    #[test]
    fn half_list_counts_each_pair_once() {
        let (mut atoms, domain) = lj_melt(4);
        let settings = NeighborSettings::new(2.5, 0.3, true);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        let brute = brute_pairs(&atoms, &domain, settings.cutneigh());
        assert_eq!(nl.total_pairs, brute);
    }

    #[test]
    fn full_list_counts_each_pair_twice() {
        let (mut atoms, domain) = lj_melt(4);
        let settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Threads);
        let brute = brute_pairs(&atoms, &domain, settings.cutneigh());
        assert_eq!(nl.total_pairs, 2 * brute);
    }

    #[test]
    fn full_list_is_symmetric_for_local_pairs() {
        let (mut atoms, domain) = lj_melt(4);
        let settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        for i in 0..nl.nlocal {
            for s in 0..nl.numneigh.at([i]) as usize {
                let j = nl.neighbors.at([i, s]) as usize;
                if j < nl.nlocal {
                    let back = (0..nl.numneigh.at([j]) as usize)
                        .any(|t| nl.neighbors.at([j, t]) as usize == i);
                    assert!(back, "{j} missing back-reference to {i}");
                }
            }
        }
    }

    #[test]
    fn fcc_coordination_number() {
        // At cutoff between 1st and 2nd neighbor shell, fcc has 12
        // nearest neighbors.
        let lat = Lattice::new(LatticeKind::Fcc, 1.0);
        let mut atoms = AtomData::from_positions(&lat.positions(4, 4, 4));
        let domain = lat.domain(4, 4, 4);
        // 1st shell at 0.7071, 2nd at 1.0.
        let settings = NeighborSettings::new(0.85, 0.0, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        for i in 0..nl.nlocal {
            assert_eq!(nl.numneigh.at([i]), 12);
        }
    }

    #[test]
    fn overflow_retry_produces_same_list() {
        let (mut atoms, domain) = lj_melt(5);
        let settings = NeighborSettings::new(3.5, 0.3, false); // large cutoff forces retries
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        let brute = brute_pairs(&atoms, &domain, settings.cutneigh());
        assert_eq!(nl.total_pairs, 2 * brute);
    }

    #[test]
    fn layout_follows_space() {
        let (mut atoms, domain) = lj_melt(4);
        let settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let host = NeighborList::build(&atoms, &domain, &settings, &Space::Threads);
        assert_eq!(host.neighbors.layout(), lkk_kokkos::Layout::Right);
        let dev = NeighborList::build(
            &atoms,
            &domain,
            &settings,
            &Space::device(lkk_gpusim::GpuArch::h100()),
        );
        assert_eq!(dev.neighbors.layout(), lkk_kokkos::Layout::Left);
        assert_eq!(host.total_pairs, dev.total_pairs);
    }

    #[test]
    fn working_set_grows_with_block() {
        let (mut atoms, domain) = lj_melt(5);
        let settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let nl = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        let w1 = nl.working_set_bytes(32);
        let w2 = nl.working_set_bytes(256);
        assert!(w2 > w1);
        assert!(w1 > 32.0 * 24.0);
    }

    #[test]
    fn displacement_tracking() {
        // 2 048 atoms: `Threads` forks the reduction at this size.
        let (mut atoms, domain) = lj_melt(8);
        let x_old: Vec<[f64; 3]> = (0..atoms.nlocal).map(|i| atoms.pos(i)).collect();
        let serial = |atoms: &AtomData| {
            let mut m: f64 = 0.0;
            for (i, old) in x_old.iter().enumerate() {
                m = m.max(domain.min_image_dsq(&atoms.pos(i), old));
            }
            m
        };
        let spaces = [
            Space::Serial,
            Space::Threads,
            Space::device(lkk_gpusim::GpuArch::h100()),
        ];
        for space in &spaces {
            assert_eq!(max_displacement_sq(&atoms, &x_old, &domain, space), 0.0);
        }
        let mut positions = x_old.clone();
        jitter(&mut positions, 0.1);
        positions[1500] = x_old[1500];
        positions[1500][0] += 0.4;
        for (i, p) in positions.iter().enumerate() {
            for (k, &c) in p.iter().enumerate() {
                atoms.x.h_view_mut().set([i, k], c);
            }
        }
        let want = serial(&atoms);
        assert!((want - 0.16).abs() < 1e-12);
        for space in &spaces {
            let got = max_displacement_sq(&atoms, &x_old, &domain, space);
            assert_eq!(got.to_bits(), want.to_bits(), "{space:?}");
        }
    }

    #[test]
    fn canonical_row_sort_orders_rows_and_preserves_sets() {
        let (mut atoms, domain) = lj_melt(4);
        let mut settings = NeighborSettings::new(2.5, 0.3, false);
        build_ghosts(&mut atoms, &domain, settings.cutneigh());
        let plain = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        settings.sort_rows = true;
        let sorted = NeighborList::build(&atoms, &domain, &settings, &Space::Serial);
        assert_eq!(plain.total_pairs, sorted.total_pairs);
        let xh = atoms.x.h_view();
        for i in 0..sorted.nlocal {
            let nn = sorted.numneigh.at([i]) as usize;
            assert_eq!(nn, plain.numneigh.at([i]) as usize);
            for s in 1..nn {
                let a = xh.get3(sorted.neighbors.at([i, s - 1]) as usize);
                let b = xh.get3(sorted.neighbors.at([i, s]) as usize);
                assert!(a <= b, "row {i} not position-ordered: {a:?} after {b:?}");
            }
            let mut pa: Vec<u32> = (0..nn).map(|s| plain.neighbors.at([i, s])).collect();
            let mut pb: Vec<u32> = (0..nn).map(|s| sorted.neighbors.at([i, s])).collect();
            pa.sort_unstable();
            pb.sort_unstable();
            assert_eq!(pa, pb, "row {i} changed its neighbor set");
        }
    }

    #[test]
    fn spatial_sort_improves_locality_and_preserves_physics() {
        use crate::pair::lj::LjCut;
        use crate::pair::{PairKokkos, PairStyle};
        use crate::sim::System;
        // Shuffle a melt so memory order is decorrelated from space.
        let lat = Lattice::from_density(LatticeKind::Fcc, 0.8442);
        let mut positions = lat.positions(6, 6, 6);
        let n = positions.len();
        // Deterministic shuffle.
        let mut s = 12345u64;
        for i in (1..n).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            positions.swap(i, (s >> 33) as usize % (i + 1));
        }
        let domain = lat.domain(6, 6, 6);
        let settings = NeighborSettings::new(2.5, 0.3, false);

        let energy_and_ws = |pos: &[[f64; 3]]| -> (f64, f64) {
            let mut system = System::new(AtomData::from_positions(pos), domain, Space::Serial);
            system.ghosts = build_ghosts(&mut system.atoms, &domain, settings.cutneigh());
            let nl = NeighborList::build(&system.atoms, &domain, &settings, &Space::Serial);
            let ws = nl.working_set_bytes(256);
            let mut pair = PairKokkos::with_options(
                LjCut::single_type(1.0, 1.0, 2.5),
                &Space::Serial,
                crate::pair::PairKokkosOptions {
                    force_half: Some(false),
                    team_over_neighbors: false,
                },
            );
            let res = pair.compute(&mut system, &nl, true);
            (res.energy, ws)
        };
        let (e_shuffled, ws_shuffled) = energy_and_ws(&positions);

        let mut atoms = AtomData::from_positions(&positions);
        spatial_sort(&mut atoms, &domain, settings.cutneigh());
        let sorted: Vec<[f64; 3]> = (0..atoms.nlocal).map(|i| atoms.pos(i)).collect();
        let (e_sorted, ws_sorted) = energy_and_ws(&sorted);

        // Same physics...
        assert!((e_shuffled - e_sorted).abs() < 1e-9 * e_shuffled.abs());
        // ...much smaller per-block neighbor working set.
        assert!(
            ws_sorted < 0.6 * ws_shuffled,
            "sorted {ws_sorted} vs shuffled {ws_shuffled}"
        );
        // Tags are a permutation (nothing lost).
        let mut tags: Vec<i64> = (0..atoms.nlocal)
            .map(|i| atoms.tag.h_view().at([i]))
            .collect();
        tags.sort_unstable();
        assert!(tags.iter().enumerate().all(|(i, &t)| t == i as i64 + 1));
    }
}
