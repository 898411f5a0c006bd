//! Simulated-MPI brick communication: ranks as threads, typed messages
//! over per-edge channels.
//!
//! [`BrickComm`] is the multi-rank [`Comm`] implementation behind the
//! brick domain decomposition of [`crate::decomp::BrickDecomp`]: the
//! decomposition, the ghost plan, the load balancer, and one staged
//! exchange routine that every phase goes through. How envelopes move
//! between ranks — channels, sequence numbers, the buffer pool, fault
//! injection and recovery — is behind the `Transport` seam
//! (`transport.rs`, `reliable.rs`), chosen once at construction.
//!
//! The halo construction is O(surface), not O(N): owned atoms are
//! binned over the sub-domain at `cutghost` granularity and only the
//! outermost bin shell is scanned against the 26 face/edge/corner
//! directions of the brick (each with its periodic wrap shift). Border
//! messages carry the shift once; per-step forward messages then carry
//! raw owner position bits, and the receiver adds its stored shift —
//! the exact arithmetic of the single-rank ghost path, so a decomposed
//! run reproduces the single-rank trajectory to float accumulation
//! order (see `tests/rank_equivalence.rs`).

use crate::atom::{AtomRecord, Mask};
use crate::comm::balance::{self, BalancePolicy};
use crate::comm::fault::{CommError, FaultPlan, FaultStats};
use crate::comm::reliable::Reliable;
use crate::comm::transport::{Envelope, Mesh, Transport};
use crate::comm::transport::{
    TAG_BALANCE, TAG_BORDER, TAG_FORWARD, TAG_MIGRATE, TAG_REDUCE, TAG_REVERSE, TAG_SCALAR,
};
use crate::comm::{Comm, CommStats, FaultConfig};
use crate::decomp::BrickDecomp;
use crate::domain::Domain;
use crate::neighbor::Bins;
use crate::sim::System;
use lkk_kokkos::{profile, Space};

/// Words per atom in a migration message (tag, type, q, x, v, image).
const MIGRATE_WORDS: usize = 12;
/// Words per atom in a border message (tag, type, q, x, shift).
const BORDER_WORDS: usize = 9;

/// One rank's side of every exchange: the transport, the staging
/// buffer between the pack and send sub-phases, and the traffic
/// counters. Kept apart from the ghost plan so the pack and unpack
/// closures can borrow the plan while the exchange runs.
struct Wire {
    rank: usize,
    nranks: usize,
    transport: Box<dyn Transport>,
    /// Packed outbound envelopes pending send (lets the pack and send
    /// sub-phases trace as distinct spans without a per-call
    /// allocation).
    outbox: Vec<(usize, Envelope)>,
    stats: CommStats,
}

/// The trace label and `(messages, bytes)` counters of a counted phase;
/// the collectives are counted per call, not per message.
fn traffic(stats: &mut CommStats, tag: u64) -> Option<(&'static str, &mut u64, &mut u64)> {
    match tag {
        TAG_MIGRATE => Some((
            "migrate_bytes",
            &mut stats.migrate_msgs,
            &mut stats.migrate_bytes,
        )),
        TAG_BORDER => Some((
            "border_bytes",
            &mut stats.border_msgs,
            &mut stats.border_bytes,
        )),
        TAG_FORWARD => Some((
            "fwd_bytes",
            &mut stats.forward_msgs,
            &mut stats.forward_bytes,
        )),
        TAG_REVERSE => Some((
            "rev_bytes",
            &mut stats.reverse_msgs,
            &mut stats.reverse_bytes,
        )),
        TAG_SCALAR => Some((
            "scalar_bytes",
            &mut stats.scalar_msgs,
            &mut stats.scalar_bytes,
        )),
        TAG_BALANCE => Some((
            "balance_bytes",
            &mut stats.balance_msgs,
            &mut stats.balance_bytes,
        )),
        _ => None,
    }
}

impl Wire {
    fn peers(&self) -> impl Iterator<Item = usize> {
        let rank = self.rank;
        (0..self.nranks).filter(move |&p| p != rank)
    }

    /// First half of the staged exchange: reclaim → pack every peer →
    /// send every peer. One envelope goes to every peer, empty or not
    /// (the per-edge sequence numbers count phases); `words(p)` sizes
    /// it and `pack(p, env)` fills it. Pool acquires happen in
    /// ascending peer order — `grow_count` depends on it.
    ///
    /// With `spans` the pack and send sub-phases trace as `pack` and
    /// `send` regions (the halo phases); without, only the transport's
    /// `reclaim` region is emitted (collectives and the census). Which
    /// regions open, and in what order, is byte-gated through the
    /// `critical_path` sections of `results/baseline.json`.
    fn post(
        &mut self,
        tag: u64,
        spans: bool,
        words: impl Fn(usize) -> usize,
        mut pack: impl FnMut(usize, &mut Envelope),
    ) -> Result<(), CommError> {
        let traced = profile::has_subscribers();
        self.transport.reclaim()?;
        {
            let _span = (spans && traced).then(|| profile::begin_region("pack"));
            for p in self.peers() {
                let mut env = self.transport.begin(p, tag, words(p));
                pack(p, &mut env);
                self.outbox.push((p, env));
            }
        }
        let _span = (spans && traced).then(|| profile::begin_region("send"));
        for (p, env) in self.outbox.drain(..) {
            let bytes = (env.payload().len() * 8) as u64;
            if let Some((label, msgs, total)) = traffic(&mut self.stats, tag).filter(|_| bytes > 0)
            {
                *msgs += 1;
                *total += bytes;
                profile::note_instant(|| (format!("{label}->r{p}"), bytes as f64));
            }
            self.transport.send(p, env)?;
        }
        Ok(())
    }

    /// Second half: receive in ascending peer order → unpack. `own`,
    /// when given, is handed to `unpack` at this rank's position in the
    /// rank order, so a collective folds every rank's contribution in
    /// the same order on every rank.
    fn collect(
        &mut self,
        tag: u64,
        spans: bool,
        own: Option<&[u64]>,
        mut unpack: impl FnMut(usize, &[u64]),
    ) -> Result<(), CommError> {
        let spans = spans && profile::has_subscribers();
        for p in 0..self.nranks {
            if p == self.rank {
                if let Some(own) = own {
                    unpack(p, own);
                }
                continue;
            }
            let env = {
                let _span = spans.then(|| profile::begin_region("recv"));
                self.transport.recv(p, tag)?
            };
            {
                let _span = spans.then(|| profile::begin_region("unpack"));
                unpack(p, env.payload());
            }
            self.transport.recycle(p, env);
        }
        Ok(())
    }

    /// All-to-all of one payload per rank: `fold` sees every rank's
    /// payload, this rank's `own` included, in ascending rank order.
    fn allgather(
        &mut self,
        tag: u64,
        own: &[u64],
        fold: impl FnMut(usize, &[u64]),
    ) -> Result<(), CommError> {
        self.post(
            tag,
            false,
            |_| own.len(),
            |_, env| env.extend_from_slice(own),
        )?;
        self.collect(tag, false, Some(own), fold)
    }
}

/// Multi-rank brick [`Comm`]: one instance per rank, created together
/// by [`BrickComm::create_all`] so the channel mesh is fully connected.
pub struct BrickComm {
    decomp: BrickDecomp,
    /// This rank's grid coordinates.
    coords: [usize; 3],
    /// This rank's brick of the global box.
    sub: Domain,
    wire: Wire,
    /// Per peer: owned rows sent as ghosts, in border-pack order.
    send_plan: Vec<Vec<u32>>,
    /// Per peer: periodic shift of each planned ghost (sent once in the
    /// border message; per-step forwards carry raw owner bits).
    send_shift: Vec<Vec<[f64; 3]>>,
    /// Per peer: ghost rows received from it in the last border build.
    recv_count: Vec<usize>,
    /// Periodic shift of each remote ghost row, segment-concatenated in
    /// ascending peer order; applied on every forward.
    recv_shift: Vec<[f64; 3]>,
    /// First remote ghost row (`nlocal + self-image count`).
    remote_base: usize,
    /// Sub-domain bins for the O(surface) boundary-shell halo search.
    bins: Bins,
    boundary: Vec<u32>,
    /// Migration scratch: surviving + immigrating atom records.
    records: Vec<AtomRecord>,
    /// Migration scratch: destination rank per owned atom.
    dest: Vec<usize>,
    /// Received border envelopes pending unpack (held so the ghost
    /// count is known before the one resize).
    inbox: Vec<(usize, Envelope)>,
    halo_seconds: f64,
    migrate_seconds: f64,
    /// Load-balance policy; `None` keeps the static uniform grid and an
    /// exchange sequence bit-identical to the pre-balancer layer.
    balance: Option<BalancePolicy>,
    /// `borders()` calls so far (drives [`BalancePolicy::every`]).
    borders_count: u64,
    /// Pair-force seconds reported by the driver via
    /// [`Comm::note_work`] (cumulative).
    work_seconds: f64,
    /// `work_seconds` at the previous census, so each census weighs the
    /// work done *since* the last one.
    work_at_balance: f64,
    /// Census scratch: this rank's payload, `[nlocal, ticks]` then the
    /// per-dimension histograms (`3 * policy.bins` words, x|y|z).
    census: Vec<u64>,
    /// Census scratch: weighted global histograms, x|y|z.
    global_hist: Vec<u64>,
    /// Census scratch: owned-atom count per rank.
    rank_counts: Vec<u64>,
    /// Peak `nlocal` ever owned after a migration (max over the run,
    /// so transient spikes are not blind spots — see
    /// [`MultiRankRun::atom_imbalance`](crate::driver::MultiRankRun::atom_imbalance)).
    max_owned: usize,
}

impl BrickComm {
    /// Build the fully connected set of rank comms for `decomp`, in
    /// rank order. Each element goes to its rank's thread (they are
    /// `Send`, not `Sync`).
    ///
    /// `fault` selects the transport for the whole run: `None` is the
    /// blocking fault-free mesh; `Some` wraps it in the fault-injecting,
    /// recovering one, every rank sharing the same seeded
    /// [`FaultPlan`]. `balance` is the load-balance policy: the census
    /// is a collective exchange, so it too is the same on every rank.
    pub fn create_all(
        decomp: &BrickDecomp,
        fault: Option<&FaultConfig>,
        balance: Option<BalancePolicy>,
    ) -> Vec<BrickComm> {
        let n = decomp.nranks();
        let meshes = Mesh::create_all(n);
        let transports: Vec<Box<dyn Transport>> = match fault {
            None => meshes.into_iter().map(|m| Box::new(m) as _).collect(),
            Some(cfg) => Reliable::wrap_all(meshes, &FaultPlan::new(cfg.clone()))
                .into_iter()
                .map(|r| Box::new(r) as _)
                .collect(),
        };
        transports
            .into_iter()
            .enumerate()
            .map(|(rank, transport)| {
                let [_, py, pz] = decomp.grid;
                let coords = [rank / (py * pz), (rank / pz) % py, rank % pz];
                BrickComm {
                    decomp: decomp.clone(),
                    coords,
                    sub: decomp.subdomain(rank),
                    wire: Wire {
                        rank,
                        nranks: n,
                        transport,
                        outbox: Vec::new(),
                        stats: CommStats::default(),
                    },
                    send_plan: (0..n).map(|_| Vec::new()).collect(),
                    send_shift: (0..n).map(|_| Vec::new()).collect(),
                    recv_count: vec![0; n],
                    recv_shift: Vec::new(),
                    remote_base: 0,
                    bins: Bins::empty(),
                    boundary: Vec::new(),
                    records: Vec::new(),
                    dest: Vec::new(),
                    inbox: Vec::new(),
                    halo_seconds: 0.0,
                    migrate_seconds: 0.0,
                    balance,
                    borders_count: 0,
                    work_seconds: 0.0,
                    work_at_balance: 0.0,
                    census: Vec::new(),
                    global_hist: Vec::new(),
                    rank_counts: Vec::new(),
                    max_owned: 0,
                }
            })
            .collect()
    }

    /// Census + cut-plane update, called from `borders()` after
    /// positions are wrapped and before migration — migration then
    /// re-homes atoms across the *new* cut planes through the ordinary
    /// exchange (and therefore under any fault plan: balance envelopes
    /// ride the same transport as every other phase).
    ///
    /// Determinism: the exchanged payload is the per-dimension integer
    /// histogram of owned atoms over *global box* fractions, which is
    /// ownership-independent — the weighted global histogram every rank
    /// assembles is identical no matter how atoms were distributed — so
    /// all ranks compute bitwise-identical cuts, and under the default
    /// [`balance::BalanceWeight::AtomCount`] the whole rebalance schedule is a
    /// pure function of the workload, never wall-clock.
    fn maybe_balance(&mut self, system: &mut System, cutghost: f64) -> Result<(), CommError> {
        let call = self.borders_count;
        self.borders_count += 1;
        let Some(policy) = self.balance else {
            return Ok(());
        };
        let nranks = self.decomp.nranks();
        if policy.every == 0 || nranks == 1 || !call.is_multiple_of(policy.every) {
            return Ok(());
        }
        let _span = profile::has_subscribers().then(|| profile::begin_region("balance"));
        let bins = policy.bins.max(1);
        let nlocal = system.atoms.nlocal;
        let l = system.domain.lengths();
        // Local census: per-dimension histograms over global-box
        // fractions of this rank's owned (already wrapped) atoms. The
        // payload has a fixed size, so the pool reaches steady state on
        // the first exchange and never grows again.
        self.census.clear();
        self.census.resize(2 + 3 * bins, 0);
        {
            let xh = system.atoms.x.h_view();
            for i in 0..nlocal {
                for (k, &lk) in l.iter().enumerate() {
                    let frac = (xh.at([i, k]) - system.domain.lo[k]) / lk;
                    let b = ((frac * bins as f64) as isize).clamp(0, bins as isize - 1) as usize;
                    self.census[2 + k * bins + b] += 1;
                }
            }
        }
        // Weight of this rank's census entries, in integer ticks; the
        // pair seconds accumulated since the previous census feed the
        // (advisory) PairTime mode.
        let work = self.work_seconds - self.work_at_balance;
        self.work_at_balance = self.work_seconds;
        self.census[0] = nlocal as u64;
        self.census[1] = balance::weight_ticks(policy.weight, work, nlocal);

        self.rank_counts.clear();
        self.rank_counts.resize(nranks, 0);
        self.global_hist.clear();
        self.global_hist.resize(3 * bins, 0);
        let (rank_counts, global_hist) = (&mut self.rank_counts, &mut self.global_hist);
        self.wire.allgather(TAG_BALANCE, &self.census, |p, w| {
            debug_assert_eq!(w.len(), 2 + 3 * bins);
            rank_counts[p] = w[0];
            for (g, &h) in global_hist.iter_mut().zip(&w[2..]) {
                *g += w[1] * h;
            }
        })?;

        let imb = balance::census_imbalance(&self.rank_counts);
        profile::note_instant(|| ("comm.balance.imbalance", imb));
        if imb <= policy.threshold {
            return Ok(());
        }
        // Recut every decomposed dimension to equalize the weighted
        // census; slabs may never come out narrower than `cutghost`
        // (the halo-layer requirement), so cuts are width-clamped — or
        // left at uniform fractions when even that is infeasible (an
        // over-decomposed box, which halo() diagnoses either way).
        let grid = self.decomp.grid;
        let mut cuts: [Vec<f64>; 3] = Default::default();
        for (k, ck) in cuts.iter_mut().enumerate() {
            let parts = grid[k];
            if parts == 1 {
                continue;
            }
            let mut c =
                balance::cuts_from_histogram(&self.global_hist[k * bins..(k + 1) * bins], parts);
            let min_frac = cutghost * (1.0 + 1e-9) / l[k];
            if parts as f64 * min_frac <= 1.0 {
                balance::clamp_cuts(&mut c, min_frac);
            } else {
                for (j, cj) in c.iter_mut().enumerate() {
                    *cj = (j + 1) as f64 / parts as f64;
                }
            }
            *ck = c;
        }
        self.decomp.set_cuts(Some(cuts));
        self.sub = self.decomp.subdomain(self.wire.rank);
        self.wire.stats.rebalances += 1;
        profile::note_instant(|| ("comm.balance.rebalance", imb));
        Ok(())
    }

    /// Migrate owned atoms whose wrapped position now falls in another
    /// rank's brick. Rows are rebuilt as [survivors][immigrants in
    /// ascending peer order]; forces and style scratch are recomputed
    /// after the rebuild and are not carried.
    fn migrate(&mut self, system: &mut System) -> Result<(), CommError> {
        let nlocal = system.atoms.nlocal;
        self.dest.clear();
        for i in 0..nlocal {
            self.dest.push(self.decomp.rank_of(&system.atoms.pos(i)));
        }
        self.records.clear();
        for i in 0..nlocal {
            if self.dest[i] == self.wire.rank {
                self.records.push(system.atoms.record(i));
            }
        }
        let (dest, atoms) = (&self.dest, &system.atoms);
        self.wire.post(
            TAG_MIGRATE,
            true,
            |p| dest.iter().filter(|&&d| d == p).count() * MIGRATE_WORDS,
            |p, env| {
                for i in (0..nlocal).filter(|&i| dest[i] == p) {
                    env.extend_from_slice(&pack_record(&atoms.record(i)));
                }
            },
        )?;
        let (records, decomp, rank) = (&mut self.records, &self.decomp, self.wire.rank);
        self.wire.collect(TAG_MIGRATE, true, None, |_, words| {
            debug_assert_eq!(words.len() % MIGRATE_WORDS, 0);
            for w in words.chunks_exact(MIGRATE_WORDS) {
                let r = unpack_record(w);
                debug_assert_eq!(
                    decomp.rank_of(&r.x),
                    rank,
                    "migrated atom landed on the wrong rank"
                );
                records.push(r);
            }
        })?;
        self.max_owned = self.max_owned.max(self.records.len());
        system.atoms.set_records(&self.records);
        Ok(())
    }

    /// Build the ghost layer: rows become [locals][periodic self
    /// images][remote segments in ascending peer order]. Candidates
    /// come from the boundary bin shell; each candidate is tested
    /// against the 26 neighbor-brick directions, whose periodic wraps
    /// determine the shift transmitted with the border message.
    fn halo(&mut self, system: &mut System, cutghost: f64) -> Result<(), CommError> {
        let l = system.domain.lengths();
        for (k, &len) in l.iter().enumerate() {
            if self.decomp.grid[k] == 1 {
                // Same minimum-image bound the single-rank build asserts.
                assert!(
                    len >= 2.0 * cutghost,
                    "box length {len} in dim {k} smaller than 2*cutghost = {}",
                    2.0 * cutghost
                );
            } else {
                assert!(
                    self.sub.hi[k] - self.sub.lo[k] >= cutghost,
                    "sub-domain narrower than cutghost {cutghost} in dim {k}; use fewer ranks"
                );
            }
        }
        // Bin owned atoms (no ghost rows exist here) over the
        // sub-domain; the outermost bin layer covers everything within
        // `cutghost` of a face.
        self.bins.rebuild(&system.atoms, &self.sub, cutghost, 0.0);
        self.bins.boundary_atoms(&mut self.boundary);

        let mut self_map = std::mem::take(&mut system.ghosts);
        self_map.owner.clear();
        self_map.shift.clear();
        self_map.cutghost = cutghost;
        for plan in &mut self.send_plan {
            plan.clear();
        }
        for shifts in &mut self.send_shift {
            shifts.clear();
        }
        let grid = self.decomp.grid;
        let [py, pz] = [grid[1], grid[2]];
        for &ai in &self.boundary {
            let i = ai as usize;
            let x = system.atoms.pos(i);
            for dx in -1i32..=1 {
                for dy in -1i32..=1 {
                    for dz in -1i32..=1 {
                        if dx == 0 && dy == 0 && dz == 0 {
                            continue;
                        }
                        let d = [dx, dy, dz];
                        let mut near = true;
                        let mut c = [0usize; 3];
                        let mut shift = [0.0f64; 3];
                        for k in 0..3 {
                            match d[k] {
                                1 => {
                                    near &= x[k] >= self.sub.hi[k] - cutghost;
                                    let up = self.coords[k] + 1;
                                    if up == grid[k] {
                                        c[k] = 0;
                                        shift[k] = -l[k];
                                    } else {
                                        c[k] = up;
                                    }
                                }
                                -1 => {
                                    near &= x[k] < self.sub.lo[k] + cutghost;
                                    if self.coords[k] == 0 {
                                        c[k] = grid[k] - 1;
                                        shift[k] = l[k];
                                    } else {
                                        c[k] = self.coords[k] - 1;
                                    }
                                }
                                _ => c[k] = self.coords[k],
                            }
                            if !near {
                                break;
                            }
                        }
                        if !near {
                            continue;
                        }
                        let target = (c[0] * py + c[1]) * pz + c[2];
                        if target == self.wire.rank {
                            // A periodic image of our own atom (every
                            // non-zero direction wrapped).
                            self_map.owner.push(i);
                            self_map.shift.push(shift);
                        } else {
                            self.send_plan[target].push(ai);
                            self.send_shift[target].push(shift);
                        }
                    }
                }
            }
        }

        // Exchange border messages: identity + position + shift once;
        // subsequent forwards reference the same ordering implicitly.
        let (plan, shifts, atoms) = (&self.send_plan, &self.send_shift, &system.atoms);
        self.wire.post(
            TAG_BORDER,
            true,
            |p| plan[p].len() * BORDER_WORDS,
            |p, env| {
                let xh = atoms.x.h_view();
                let tagh = atoms.tag.h_view();
                let typh = atoms.typ.h_view();
                let qh = atoms.q.h_view();
                for (&ai, s) in plan[p].iter().zip(&shifts[p]) {
                    let i = ai as usize;
                    env.push(tagh.at([i]) as u64);
                    env.push(typh.at([i]) as i64 as u64);
                    env.push(qh.at([i]).to_bits());
                    for k in 0..3 {
                        env.push(xh.at([i, k]).to_bits());
                    }
                    for &sk in s {
                        env.push(sk.to_bits());
                    }
                }
            },
        )?;
        // The receive side is two passes instead of `Wire::collect`:
        // every count is needed before the one resize, and the `unpack`
        // span stays open over the self-image fill.
        let traced = profile::has_subscribers();
        self.inbox.clear();
        let mut nremote = 0usize;
        {
            let _span = traced.then(|| profile::begin_region("recv"));
            for p in self.wire.peers() {
                let env = self.wire.transport.recv(p, TAG_BORDER)?;
                debug_assert_eq!(env.payload().len() % BORDER_WORDS, 0);
                let count = env.payload().len() / BORDER_WORDS;
                self.recv_count[p] = count;
                nremote += count;
                self.inbox.push((p, env));
            }
        }
        let _unpack_span = traced.then(|| profile::begin_region("unpack"));

        let nlocal = system.atoms.nlocal;
        let nself = self_map.nghost();
        system.atoms.resize_all(nlocal + nself + nremote, nlocal);
        system.atoms.nghost = nself + nremote;
        self.remote_base = nlocal + nself;

        // Self images: metadata from the owner rows, then positions.
        crate::comm::copy_ghost_metadata(&mut system.atoms, &self_map);
        crate::comm::forward_positions(&mut system.atoms, &self_map);

        // Remote segments, ascending peer order.
        self.recv_shift.clear();
        let mut row = self.remote_base;
        for (p, env) in self.inbox.drain(..) {
            for w in env.payload().chunks_exact(BORDER_WORDS) {
                let shift = [
                    f64::from_bits(w[6]),
                    f64::from_bits(w[7]),
                    f64::from_bits(w[8]),
                ];
                let xh = system.atoms.x.h_view_mut();
                for (k, &sk) in shift.iter().enumerate() {
                    xh.set([row, k], f64::from_bits(w[3 + k]) + sk);
                }
                system.atoms.tag.h_view_mut().set([row], w[0] as i64);
                system.atoms.typ.h_view_mut().set([row], w[1] as i64 as i32);
                system.atoms.q.h_view_mut().set([row], f64::from_bits(w[2]));
                self.recv_shift.push(shift);
                row += 1;
            }
            self.wire.transport.recycle(p, env);
        }
        system.ghosts = self_map;
        Ok(())
    }
}

impl Comm for BrickComm {
    fn name(&self) -> &'static str {
        "brick"
    }

    fn nranks(&self) -> usize {
        self.decomp.nranks()
    }

    fn rank(&self) -> usize {
        self.wire.rank
    }

    fn borders(&mut self, system: &mut System, cutghost: f64) -> Result<(), CommError> {
        // Migration repacks every per-atom field, so everything must be
        // host-fresh (the caller guarantees only positions).
        system.atoms.sync(&Space::Serial, Mask::ALL);
        system.atoms.nghost = 0;
        system.atoms.wrap_positions(&system.domain);
        // Rebalance (policy-gated) *before* migration: migration then
        // re-homes atoms across the freshly moved cut planes.
        self.maybe_balance(system, cutghost)?;
        {
            let region = profile::begin_region("migrate");
            self.migrate(system)?;
            self.migrate_seconds += region.finish();
        }
        {
            let region = profile::begin_region("halo");
            self.halo(system, cutghost)?;
            self.halo_seconds += region.finish();
        }
        Ok(())
    }

    fn forward(&mut self, system: &mut System) -> Result<(), CommError> {
        crate::comm::forward_positions(&mut system.atoms, &system.ghosts);
        if self.wire.nranks == 1 {
            return Ok(());
        }
        let plan = &self.send_plan;
        let xh = system.atoms.x.h_view();
        self.wire.post(
            TAG_FORWARD,
            true,
            |p| plan[p].len() * 3,
            |p, env| {
                for &ai in &plan[p] {
                    for k in 0..3 {
                        env.push(xh.at([ai as usize, k]).to_bits());
                    }
                }
            },
        )?;
        let (recv_count, recv_shift, base) = (&self.recv_count, &self.recv_shift, self.remote_base);
        let mut row = base;
        let xh = system.atoms.x.h_view_mut();
        self.wire.collect(TAG_FORWARD, true, None, |p, words| {
            debug_assert_eq!(words.len(), recv_count[p] * 3);
            for w in words.chunks_exact(3) {
                let s = recv_shift[row - base];
                for (k, &sk) in s.iter().enumerate() {
                    xh.set([row, k], f64::from_bits(w[k]) + sk);
                }
                row += 1;
            }
        })
    }

    fn reverse(&mut self, system: &mut System) -> Result<(), CommError> {
        // Fold periodic self images first (single-rank ordering), then
        // remote contributions in ascending peer order — deterministic
        // on every rank.
        crate::comm::reverse_forces(&mut system.atoms, &system.ghosts);
        if self.wire.nranks == 1 {
            return Ok(());
        }
        let (plan, recv_count) = (&self.send_plan, &self.recv_count);
        let fh = system.atoms.f.h_view_mut();
        let mut row = self.remote_base;
        self.wire.post(
            TAG_REVERSE,
            true,
            |p| recv_count[p] * 3,
            |p, env| {
                for _ in 0..recv_count[p] {
                    for k in 0..3 {
                        env.push(fh.at([row, k]).to_bits());
                        fh.set([row, k], 0.0);
                    }
                    row += 1;
                }
            },
        )?;
        self.wire.collect(TAG_REVERSE, true, None, |p, words| {
            debug_assert_eq!(words.len(), plan[p].len() * 3);
            for (&ai, w) in plan[p].iter().zip(words.chunks_exact(3)) {
                for (k, &wk) in w.iter().enumerate() {
                    let v = fh.at([ai as usize, k]) + f64::from_bits(wk);
                    fh.set([ai as usize, k], v);
                }
            }
        })
    }

    fn forward_scalar(&mut self, system: &mut System, values: &mut [f64]) -> Result<(), CommError> {
        let nlocal = system.atoms.nlocal;
        for (g, &owner) in system.ghosts.owner.iter().enumerate() {
            values[nlocal + g] = values[owner];
        }
        if self.wire.nranks == 1 {
            return Ok(());
        }
        let (plan, recv_count) = (&self.send_plan, &self.recv_count);
        self.wire.post(
            TAG_SCALAR,
            true,
            |p| plan[p].len(),
            |p, env| {
                for &ai in &plan[p] {
                    env.push(values[ai as usize].to_bits());
                }
            },
        )?;
        let mut row = self.remote_base;
        self.wire.collect(TAG_SCALAR, true, None, |p, words| {
            debug_assert_eq!(words.len(), recv_count[p]);
            for &w in words {
                values[row] = f64::from_bits(w);
                row += 1;
            }
        })
    }

    fn allreduce_or(&mut self, flag: bool) -> Result<bool, CommError> {
        if self.wire.nranks == 1 {
            return Ok(flag);
        }
        self.wire.stats.allreduce_count += 1;
        let mut acc = false;
        self.wire
            .allgather(TAG_REDUCE, &[flag as u64], |_, w| acc |= w[0] != 0)?;
        Ok(acc)
    }

    fn allreduce_sum(&mut self, value: f64) -> Result<f64, CommError> {
        if self.wire.nranks == 1 {
            return Ok(value);
        }
        self.wire.stats.allreduce_count += 1;
        // Combined in ascending rank order (own term at its place), so
        // every rank computes the bitwise-identical sum.
        let mut acc = 0.0;
        self.wire
            .allgather(TAG_REDUCE, &[value.to_bits()], |_, w| {
                acc += f64::from_bits(w[0])
            })?;
        Ok(acc)
    }

    fn quiesce(&mut self) -> Result<(), CommError> {
        self.wire.transport.quiesce()
    }

    fn stats(&self) -> CommStats {
        self.wire.stats
    }

    fn fault_stats(&self) -> FaultStats {
        self.wire.transport.fault_stats()
    }

    fn grow_count(&self) -> u64 {
        self.wire.transport.grow_count()
    }

    fn phase_seconds(&self) -> [f64; 2] {
        [self.halo_seconds, self.migrate_seconds]
    }

    fn note_work(&mut self, seconds: f64) {
        self.work_seconds = seconds;
    }

    fn max_owned(&self) -> usize {
        self.max_owned
    }
}

fn pack_record(r: &AtomRecord) -> [u64; MIGRATE_WORDS] {
    let mut words = [0; MIGRATE_WORDS];
    words[0] = r.tag as u64;
    words[1] = r.typ as i64 as u64;
    words[2] = r.q.to_bits();
    for k in 0..3 {
        words[3 + k] = r.x[k].to_bits();
        words[6 + k] = r.v[k].to_bits();
        words[9 + k] = r.image[k] as i64 as u64;
    }
    words
}

fn unpack_record(words: &[u64]) -> AtomRecord {
    AtomRecord {
        tag: words[0] as i64,
        typ: words[1] as i64 as i32,
        q: f64::from_bits(words[2]),
        x: [
            f64::from_bits(words[3]),
            f64::from_bits(words[4]),
            f64::from_bits(words[5]),
        ],
        v: [
            f64::from_bits(words[6]),
            f64::from_bits(words[7]),
            f64::from_bits(words[8]),
        ],
        image: [
            words[9] as i64 as i32,
            words[10] as i64 as i32,
            words[11] as i64 as i32,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomData;
    use crate::comm::build_ghosts;

    #[test]
    fn record_pack_round_trips() {
        let r = AtomRecord {
            tag: -42,
            typ: 3,
            q: -0.7,
            x: [1.5, -2.5, 3.5],
            v: [0.1, -0.2, 0.3],
            image: [-1, 0, 2],
        };
        let buf = pack_record(&r);
        assert_eq!(buf.len(), MIGRATE_WORDS);
        assert_eq!(unpack_record(&buf), r);
    }

    #[test]
    fn single_brick_matches_single_rank_ghost_set() {
        // On a [1,1,1] grid every ghost is a periodic self image; the
        // (owner, shift) multiset must equal the single-rank builder's.
        let positions = [
            [0.5, 0.5, 0.5],
            [5.0, 5.0, 5.0],
            [9.5, 5.0, 0.3],
            [0.1, 9.9, 5.0],
        ];
        let domain = Domain::cubic(10.0);
        let mut reference = AtomData::from_positions(&positions);
        let ref_map = build_ghosts(&mut reference, &domain, 2.0);

        let decomp = BrickDecomp::new(domain, 1);
        let mut comms = BrickComm::create_all(&decomp, None, None);
        let mut comm = comms.pop().unwrap();
        let atoms = AtomData::from_positions(&positions);
        let mut system = System::new(atoms, domain, Space::Serial);
        comm.borders(&mut system, 2.0).unwrap();

        assert_eq!(system.ghosts.nghost(), ref_map.nghost());
        let key = |o: usize, s: [f64; 3]| (o, s.map(|v| v.to_bits()));
        let mut a: Vec<_> = ref_map
            .owner
            .iter()
            .zip(&ref_map.shift)
            .map(|(&o, &s)| key(o, s))
            .collect();
        let mut b: Vec<_> = system
            .ghosts
            .owner
            .iter()
            .zip(&system.ghosts.shift)
            .map(|(&o, &s)| key(o, s))
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(
            comm.stats(),
            CommStats::default(),
            "1-rank comm sent messages"
        );
    }

    #[test]
    fn two_rank_exchange_and_collectives() {
        // Grid [1,1,2]: rank 0 owns z in [0,5), rank 1 owns z in [5,10).
        let domain = Domain::cubic(10.0);
        let decomp = BrickDecomp::new(domain, 2);
        assert_eq!(decomp.grid, [1, 1, 2]);
        let comms = BrickComm::create_all(&decomp, None, None);
        let shares = [vec![[5.0, 5.0, 4.9]], vec![[5.0, 5.0, 5.1]]];
        let results: Vec<(usize, f64, [f64; 3])> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .zip(shares)
                .enumerate()
                .map(|(rank, (mut comm, share))| {
                    scope.spawn(move || {
                        let atoms = AtomData::from_positions(&share);
                        let mut system = System::new(atoms, domain, Space::Serial);
                        comm.borders(&mut system, 1.0).unwrap();
                        // One remote ghost from the facing rank, no wrap.
                        assert_eq!(system.atoms.nlocal, 1);
                        assert_eq!(system.atoms.nghost, 1);
                        assert_eq!(system.ghosts.nghost(), 0, "no self images expected");
                        let ghost_z = system.atoms.pos(1)[2];
                        // Owner moves; forward refreshes the peer's ghost.
                        let dz = if rank == 0 { -0.05 } else { 0.05 };
                        {
                            let xh = system.atoms.x.h_view_mut();
                            let z = xh.at([0, 2]) + dz;
                            xh.set([0, 2], z);
                        }
                        comm.forward(&mut system).unwrap();
                        let ghost_z_after = system.atoms.pos(1)[2];
                        // Put a force on the ghost; reverse folds it to
                        // the owner on the other rank.
                        {
                            let fh = system.atoms.f.h_view_mut();
                            fh.set([1, 0], 1.0 + rank as f64);
                        }
                        comm.reverse(&mut system).unwrap();
                        let own_force = system.atoms.f.h_view().at([0, 0]);
                        // Scalar forwarding and the collectives.
                        let mut vals = vec![0.0; system.atoms.nall()];
                        vals[0] = 10.0 * (rank + 1) as f64;
                        comm.forward_scalar(&mut system, &mut vals).unwrap();
                        let ghost_scalar = vals[1];
                        assert!(comm.allreduce_or(rank == 1).unwrap());
                        assert!(!comm.allreduce_or(false).unwrap());
                        let sum = comm.allreduce_sum(0.5 + rank as f64).unwrap();
                        (
                            rank,
                            sum,
                            [ghost_z, ghost_z_after, own_force + ghost_scalar],
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (rank, sum, [gz, gz_after, combined]) in results {
            assert_eq!(sum, 2.0, "rank {rank} reduced sum");
            if rank == 0 {
                assert!((gz - 5.1).abs() < 1e-12);
                assert!((gz_after - 5.15).abs() < 1e-12);
                // Peer (rank 1) put force 2.0 on our ghosted atom and
                // reverse delivered it; its scalar 20.0 arrived on our
                // ghost row.
                assert_eq!(combined, 2.0 + 20.0);
            } else {
                assert!((gz - 4.9).abs() < 1e-12);
                assert!((gz_after - 4.85).abs() < 1e-12);
                assert_eq!(combined, 1.0 + 10.0);
            }
        }
    }

    #[test]
    fn periodic_wrap_ghosts_cross_the_box() {
        // Two ranks, atoms near the *outer* z faces: ghosts must arrive
        // shifted by ±L so minimum-image pairs see them adjacent.
        let domain = Domain::cubic(10.0);
        let decomp = BrickDecomp::new(domain, 2);
        let comms = BrickComm::create_all(&decomp, None, None);
        let shares = [vec![[5.0, 5.0, 0.2]], vec![[5.0, 5.0, 9.8]]];
        let ghost_zs: Vec<(usize, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .zip(shares)
                .enumerate()
                .map(|(rank, (mut comm, share))| {
                    scope.spawn(move || {
                        let atoms = AtomData::from_positions(&share);
                        let mut system = System::new(atoms, domain, Space::Serial);
                        comm.borders(&mut system, 1.0).unwrap();
                        assert_eq!(system.atoms.nghost, 1);
                        (rank, system.atoms.pos(1)[2])
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (rank, gz) in ghost_zs {
            if rank == 0 {
                // Rank 1's atom at 9.8, wrapped below our brick: -0.2.
                assert!((gz - (-0.2)).abs() < 1e-12, "rank 0 ghost z = {gz}");
            } else {
                assert!((gz - 10.2).abs() < 1e-12, "rank 1 ghost z = {gz}");
            }
        }
    }

    #[test]
    fn migration_moves_atoms_to_their_brick() {
        let domain = Domain::cubic(10.0);
        let decomp = BrickDecomp::new(domain, 2);
        let comms = BrickComm::create_all(&decomp, None, None);
        // Rank 0 starts holding an atom that belongs to rank 1 (z=7)
        // and one of its own; rank 1 holds one atom drifted out of the
        // box (z=11.5 wraps to 1.5 → rank 0).
        let shares = [
            vec![[2.0, 2.0, 2.0], [2.0, 2.0, 7.0]],
            vec![[8.0, 8.0, 11.5]],
        ];
        let finals: Vec<(usize, usize, Vec<i64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = comms
                .into_iter()
                .zip(shares)
                .enumerate()
                .map(|(rank, (mut comm, share))| {
                    scope.spawn(move || {
                        let atoms = AtomData::from_positions(&share);
                        let mut system = System::new(atoms, domain, Space::Serial);
                        comm.borders(&mut system, 1.0).unwrap();
                        let tags = (0..system.atoms.nlocal)
                            .map(|i| system.atoms.tag.h_view().at([i]))
                            .collect();
                        (rank, system.atoms.nlocal, tags, comm.stats().migrate_msgs)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Tags are per-rank sequential here (1, 2 on rank 0; 1 on rank
        // 1): rank 0 keeps its tag-1 atom and receives rank 1's wrapped
        // one (also tag 1); rank 1 receives rank 0's tag-2 atom.
        for (rank, nlocal, tags, migrate_msgs) in finals {
            assert!(migrate_msgs > 0, "rank {rank} migrated nothing");
            if rank == 0 {
                assert_eq!(nlocal, 2, "rank 0 should own its atom + the wrapped one");
                assert_eq!(tags, vec![1, 1]);
            } else {
                assert_eq!(nlocal, 1);
                assert_eq!(tags, vec![2]);
            }
        }
    }
}
