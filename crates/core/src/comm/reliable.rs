//! Fault injection and recovery as a decorator over [`Mesh`].
//!
//! [`Reliable`] is the [`Transport`] a run gets when `RunSpec::fault`
//! is set. On the send side it injects the faults its [`FaultPlan`]
//! schedules for each `(edge, seq)` event; on the receive side it
//! recovers from them: duplicated or reordered deliveries are detected
//! and discarded by `seq` alone, a CRC32 over the payload catches
//! corruption, and lost or corrupted envelopes are recovered by NACK +
//! retransmit over a per-edge control channel. Receives poll with
//! bounded exponential backoff instead of blocking forever, so a dead
//! edge or vanished peer surfaces as a structured [`CommError`] rather
//! than a deadlock. The whole fault model and the determinism contract
//! live in `docs/robustness.md`.

use crate::comm::fault::{crc32_words, CommError, FaultKind, FaultPlan, FaultStats};
use crate::comm::transport::{endpoint_grid, tag_name, Envelope, Mesh, Transport};
use crate::comm::transport::{HDR, TAG_QUIESCE};
use lkk_kokkos::profile;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::{Duration, Instant};

/// [`Mesh`] plus the fault schedule and every piece of recovery state.
pub(super) struct Reliable {
    mesh: Mesh,
    /// Per peer: retransmit requests (NACKed sequence numbers) to it.
    ctrl_tx: Vec<Option<Sender<u64>>>,
    /// Per peer: retransmit requests from it, polled between receives.
    ctrl_rx: Vec<Option<Receiver<u64>>>,
    /// Clean copy of the last envelope sent per peer; a reorder fault
    /// replays it ahead of the current envelope.
    last_sent: Vec<Vec<u64>>,
    /// Pre-packed envelopes awaiting a possible NACK: `(seq, envelope)`.
    /// A sender can lead a stuck receiver by at most one phase (it
    /// cannot finish its own next receive round without the stuck
    /// peer's send), so at most two entries per peer ever coexist.
    pending_retx: Vec<Vec<(u64, Vec<u64>)>>,
    /// Envelopes received ahead of their turn, parked per peer until
    /// the receive that expects them. Holds at most two: the expected
    /// envelope (pulled by an eager drain while waiting elsewhere) and
    /// the next-phase one (the one-phase-lead bound caps the sender
    /// there); duplicates of either are discarded on arrival.
    stash: Vec<Vec<Vec<u64>>>,
    /// The shared schedule; both endpoints of an edge agree on it by
    /// construction.
    plan: FaultPlan,
    /// Largest buffer capacity the pool has been provisioned for (see
    /// [`Reliable::prewarm`]); 0 until the first send.
    prewarm_cap: usize,
    fstats: FaultStats,
}

impl Reliable {
    /// Wrap every endpoint of a mesh, adding the NACK control channels.
    /// All ranks of a run share `plan`.
    pub(super) fn wrap_all(meshes: Vec<Mesh>, plan: &FaultPlan) -> Vec<Reliable> {
        let n = meshes.len();
        let mut ctrl_tx = endpoint_grid(n);
        let mut ctrl_rx = endpoint_grid(n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    // NACKs for data a → b travel b → a.
                    let (tx, rx) = channel();
                    ctrl_tx[b][a] = Some(tx);
                    ctrl_rx[a][b] = Some(rx);
                }
            }
        }
        meshes
            .into_iter()
            .zip(ctrl_tx.into_iter().zip(ctrl_rx))
            .map(|(mesh, (ctrl_tx, ctrl_rx))| Reliable {
                mesh,
                ctrl_tx,
                ctrl_rx,
                last_sent: (0..n).map(|_| Vec::new()).collect(),
                pending_retx: (0..n).map(|_| Vec::new()).collect(),
                stash: (0..n).map(|_| Vec::new()).collect(),
                plan: plan.clone(),
                prewarm_cap: 0,
                fstats: FaultStats::default(),
            })
            .collect()
    }

    /// Fault/recovery instant into the trace layer (summed into
    /// `rank{r}/comm.fault.*` metrics counters by `lkk-trace`).
    fn note_fault(&self, name: &str, value: f64) {
        profile::note_instant(|| (name, value));
    }

    /// Provision the pool for worst-case fault-path extras of the
    /// largest envelope class seen so far: per edge, up to two parked
    /// retransmit copies plus one in-flight duplicate/reorder copy can
    /// be live at once, on top of a full phase's worth of originals.
    /// Acquiring that many buffers at once and releasing them grows the
    /// pool *now* — a plan-determined point, reached during warmup for
    /// every class (a class first sent after warmup would grow the
    /// fault-free baseline too) — so later fault recovery never
    /// allocates, keeping `grow_count` frozen after warmup.
    fn prewarm(&mut self, cap: usize) {
        let peers = self.mesh.links.iter().filter(|l| l.is_some()).count();
        let mut held: Vec<Vec<u64>> = (0..4 * peers)
            .map(|_| self.mesh.pool.acquire(cap))
            .collect();
        self.prewarm_cap = held
            .iter()
            .map(|b| b.capacity())
            .max()
            .unwrap_or(cap)
            .max(cap);
        while let Some(buf) = held.pop() {
            self.mesh.pool.free.push(buf);
        }
    }

    /// Answer inbound retransmit requests. A NACK with no parked
    /// envelope is ignored on purpose: it can only mean the original
    /// was neither dropped nor corrupted, so it is in flight and will
    /// arrive — answering would need a fresh allocation at a
    /// timing-dependent moment, breaking pool determinism for nothing.
    fn service_nacks(&mut self) {
        for p in 0..self.ctrl_rx.len() {
            while let Some(ctrl_rx) = self.ctrl_rx[p].as_ref() {
                let seq = match ctrl_rx.try_recv() {
                    Ok(seq) => seq,
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                };
                if let Some(pos) = self.pending_retx[p].iter().position(|(s, _)| *s == seq) {
                    let (_, buf) = self.pending_retx[p].remove(pos);
                    self.fstats.retransmits += 1;
                    self.note_fault("comm.fault.retransmit", seq as f64);
                    // A send failure here means the requester died
                    // right after asking; the data-path receive will
                    // surface the disconnect.
                    let _ = self.mesh.send_to(p, buf);
                }
            }
        }
    }

    fn send_nack(&mut self, peer: usize, seq: u64) {
        self.fstats.nacks_sent += 1;
        self.note_fault("comm.fault.nack", seq as f64);
        // A dead peer is reported by the data-path receive, not here.
        let _ = self.ctrl_tx[peer].as_ref().unwrap().send(seq);
    }

    /// Drain every inbound data channel without blocking, recycling
    /// stale envelopes and parking (at most one) future envelope per
    /// edge. Called from the wait loops: a duplicate or a retransmit
    /// that raced its original sits *unread* in our channel until our
    /// next receive on that edge — but its sender counts it as owed and
    /// its *reclaim* blocks on our recycle. Two such leftovers on
    /// opposite directions of an edge (or around a cycle of edges)
    /// would deadlock every reclaim involved; eagerly draining while we
    /// ourselves wait breaks the cycle.
    fn drain_inbound(&mut self) {
        for p in 0..self.mesh.links.len() {
            loop {
                let buf = {
                    let Some(link) = self.mesh.links[p].as_ref() else {
                        break;
                    };
                    match link.rx.try_recv() {
                        Ok(b) => b,
                        // A disconnect is diagnosed on the data path.
                        Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                    }
                };
                let seq = buf[1];
                if seq < self.mesh.recv_seq[p] {
                    self.fstats.stale_discards += 1;
                    self.note_fault("comm.fault.stale", seq as f64);
                    self.mesh.recycle(p, Envelope(buf));
                } else {
                    self.park(p, buf);
                }
            }
        }
    }

    /// Park a not-yet-consumed envelope for peer `p` until the receive
    /// that expects it. Duplicates of an already-parked sequence are
    /// discarded, and a corrupted envelope is rejected (with an
    /// immediate retransmit request) rather than parked, so the stash
    /// only ever holds valid payloads — at most two: the currently
    /// expected sequence (pulled in by an eager drain while this rank
    /// waited elsewhere) and the next one (the one-phase-lead bound
    /// caps the sender there).
    fn park(&mut self, p: usize, buf: Vec<u64>) {
        let seq = buf[1];
        if self.stash[p].iter().any(|b| b[1] == seq) {
            self.fstats.stale_discards += 1;
            self.note_fault("comm.fault.stale", seq as f64);
            self.mesh.recycle(p, Envelope(buf));
        } else if crc32_words(&buf[HDR..]) as u64 != buf[2] {
            self.fstats.crc_failures += 1;
            self.note_fault("comm.fault.crc", seq as f64);
            self.mesh.recycle(p, Envelope(buf));
            self.send_nack(p, seq);
        } else {
            debug_assert!(
                seq <= self.mesh.recv_seq[p] + 1,
                "sender more than one phase ahead"
            );
            self.stash[p].push(buf);
            debug_assert!(self.stash[p].len() <= 2, "stash overflow");
        }
    }
}

impl Transport for Reliable {
    /// Like [`Mesh::reclaim`], but the wait polls, services retransmit
    /// requests (a stuck peer may need one of our parked envelopes
    /// before it can drain anything), and turns a vanished peer into an
    /// error.
    #[expect(
        clippy::disallowed_methods,
        reason = "retry/timeout recovery measures real elapsed time to detect stalled ranks; fault-path only, never reached in deterministic runs (fault injection off), so no bytes of canonical output depend on it"
    )]
    fn reclaim(&mut self) -> Result<(), CommError> {
        let _span = profile::has_subscribers().then(|| profile::begin_region("reclaim"));
        let policy = self.plan.policy();
        let poll = Duration::from_millis(policy.poll_ms);
        // Same wall-clock budget as a resilient receive: a peer that
        // cannot drain the previous phase within it is itself stuck on
        // an unrecoverable edge, and this rank must degrade to an error
        // rather than spin forever (the no-deadlock guarantee).
        let budget = Duration::from_millis(policy.budget_ms());
        for p in 0..self.mesh.links.len() {
            let started = Instant::now();
            while let Some(link) = self.mesh.links[p].as_ref() {
                if link.owed.get() == 0 {
                    break;
                }
                match link.recycle_rx.recv_timeout(poll) {
                    Ok(buf) => {
                        link.owed.set(link.owed.get() - 1);
                        self.mesh.pool.free.push(buf);
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        self.service_nacks();
                        self.drain_inbound();
                        if started.elapsed() >= budget {
                            self.fstats.timeouts += 1;
                            self.note_fault("comm.fault.timeout", p as f64);
                            return Err(CommError::Timeout {
                                rank: self.mesh.rank,
                                peer: p,
                                phase: "reclaim",
                                seq: self.mesh.send_seq[p],
                                retries: policy.max_retries,
                                waited_ms: started.elapsed().as_millis() as u64,
                            });
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(self.mesh.disconnected(p, "reclaim"))
                    }
                }
            }
        }
        Ok(())
    }

    fn begin(&mut self, peer: usize, tag: u64, payload_words: usize) -> Envelope {
        self.mesh.begin(peer, tag, payload_words)
    }

    /// Transmit a packed envelope, injecting the planned fault for this
    /// `(edge, seq)` event if any. All pool demand of the fault paths
    /// happens here, at plan-determined points, which is what keeps
    /// `grow_count` a pure function of the seed (and zero after warmup).
    fn send(&mut self, peer: usize, env: Envelope) -> Result<(), CommError> {
        let mut buf = env.0;
        let tag = buf[0];
        let seq = self.mesh.stamp_sent(peer, &buf);
        if buf.capacity() > self.prewarm_cap {
            self.prewarm(buf.capacity());
        }
        // Sending seq `s` proves the receiver finished phase `s-2`
        // (it sent its phase `s-1` envelopes, which required accepting
        // everything through `s-2`) — parked copies that old can never
        // be NACKed again. This happens when a reorder pre-send delivers
        // the payload of a dropped envelope, masking the drop: prune
        // them back into the pool at this plan-determined point, or
        // they would leak and grow the pool.
        let mut i = 0;
        while i < self.pending_retx[peer].len() {
            if self.pending_retx[peer][i].0 + 2 <= seq {
                let (_, old) = self.pending_retx[peer].remove(i);
                self.mesh.pool.free.push(old);
            } else {
                i += 1;
            }
        }
        buf[2] = crc32_words(&buf[HDR..]) as u64;
        if tag == TAG_QUIESCE {
            // Shutdown handshake: never faulted (see TAG_QUIESCE docs).
            return self.mesh.send_to(peer, buf);
        }
        let rank = self.mesh.rank;
        if self.plan.edge_dead(rank, peer, seq) {
            // Unrecoverable: the transmission and any retransmit are
            // gone. The receiver must exhaust its retries.
            self.fstats.drops += 1;
            self.note_fault("comm.fault.dead_drop", seq as f64);
            self.mesh.pool.free.push(buf);
            return Ok(());
        }
        let event = self.plan.draw(rank, peer, seq);
        // A reorder fault needs the *previous* envelope before
        // `last_sent` is refreshed below.
        if let Some(ev) = event {
            if ev.kind == FaultKind::Reorder && !self.last_sent[peer].is_empty() {
                let stale_src = std::mem::take(&mut self.last_sent[peer]);
                let mut stale = self.mesh.pool.acquire(stale_src.len());
                stale.extend_from_slice(&stale_src);
                self.last_sent[peer] = stale_src;
                self.fstats.reorders += 1;
                self.note_fault("comm.fault.reorder", seq as f64);
                self.mesh.send_to(peer, stale)?;
            }
        }
        self.last_sent[peer].clear();
        self.last_sent[peer].extend_from_slice(&buf);
        match event.map(|ev| (ev.kind, ev)) {
            None | Some((FaultKind::Reorder, _)) => self.mesh.send_to(peer, buf),
            Some((FaultKind::Delay, ev)) => {
                self.fstats.delays += 1;
                self.note_fault("comm.fault.delay", ev.delay_ms as f64);
                std::thread::sleep(Duration::from_millis(ev.delay_ms));
                self.mesh.send_to(peer, buf)
            }
            Some((FaultKind::Drop, _)) => {
                // The packed envelope becomes its own retransmit copy:
                // the receiver times out, NACKs, and `service_nacks`
                // delivers it — zero extra pool demand.
                self.fstats.drops += 1;
                self.note_fault("comm.fault.drop", seq as f64);
                self.pending_retx[peer].push((seq, buf));
                debug_assert!(
                    self.pending_retx[peer].len() <= 2,
                    "retransmit ring overflow"
                );
                Ok(())
            }
            Some((FaultKind::Duplicate, _)) => {
                self.fstats.duplicates += 1;
                self.note_fault("comm.fault.duplicate", seq as f64);
                let mut copy = self.mesh.pool.acquire(buf.len());
                copy.extend_from_slice(&buf);
                self.mesh.send_to(peer, buf)?;
                self.mesh.send_to(peer, copy)
            }
            Some((FaultKind::Corrupt, ev)) => {
                // Park a clean copy for the NACK, then flip one bit of
                // the transmitted payload (or of the CRC word itself
                // when the payload is empty — either way validation
                // fails on arrival).
                self.fstats.corruptions += 1;
                self.note_fault("comm.fault.corrupt", seq as f64);
                let mut clean = self.mesh.pool.acquire(buf.len());
                clean.extend_from_slice(&buf);
                self.pending_retx[peer].push((seq, clean));
                debug_assert!(
                    self.pending_retx[peer].len() <= 2,
                    "retransmit ring overflow"
                );
                if buf.len() > HDR {
                    let i = HDR + (ev.aux as usize) % (buf.len() - HDR);
                    buf[i] ^= 1 << ((ev.aux >> 32) % 64);
                } else {
                    buf[2] ^= 1;
                }
                self.mesh.send_to(peer, buf)
            }
        }
    }

    /// Poll the data channel, discard stale (duplicate / reordered)
    /// envelopes by sequence number, park one future envelope, reject
    /// CRC mismatches with an immediate NACK, and after `nack_base_ms`
    /// of silence start NACK rounds with bounded exponential backoff.
    /// Exhausting `max_retries` rounds returns [`CommError::Timeout`] —
    /// the no-deadlock guarantee.
    #[expect(
        clippy::disallowed_methods,
        reason = "retry/timeout recovery measures real elapsed time to detect stalled ranks; fault-path only, never reached in deterministic runs (fault injection off), so no bytes of canonical output depend on it"
    )]
    fn recv(&mut self, peer: usize, tag: u64) -> Result<Envelope, CommError> {
        let expected = self.mesh.recv_seq[peer];
        let policy = self.plan.policy();
        let phase = tag_name(tag);
        let start = Instant::now();
        let mut retries = 0u32;
        let mut backoff_ms = policy.nack_base_ms;
        let mut nack_at = start + Duration::from_millis(backoff_ms);
        loop {
            // An envelope parked by an earlier recovery round?
            let from_stash = self.stash[peer].iter().position(|b| b[1] == expected);
            let buf = if let Some(i) = from_stash {
                Some(self.stash[peer].remove(i))
            } else {
                match self.mesh.links[peer]
                    .as_ref()
                    .unwrap()
                    .rx
                    .recv_timeout(Duration::from_millis(policy.poll_ms))
                {
                    Ok(b) => Some(b),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(self.mesh.disconnected(peer, phase))
                    }
                }
            };
            let Some(buf) = buf else {
                self.service_nacks();
                self.drain_inbound();
                if Instant::now() >= nack_at {
                    if retries >= policy.max_retries {
                        self.fstats.timeouts += 1;
                        self.note_fault("comm.fault.timeout", expected as f64);
                        return Err(CommError::Timeout {
                            rank: self.mesh.rank,
                            peer,
                            phase,
                            seq: expected,
                            retries,
                            waited_ms: start.elapsed().as_millis() as u64,
                        });
                    }
                    self.send_nack(peer, expected);
                    retries += 1;
                    backoff_ms = (backoff_ms * 2).min(policy.nack_cap_ms);
                    nack_at = Instant::now() + Duration::from_millis(backoff_ms);
                }
                continue;
            };
            let seq = buf[1];
            if seq < expected {
                // Duplicate or reordered leftover: already accepted.
                self.fstats.stale_discards += 1;
                self.note_fault("comm.fault.stale", seq as f64);
                self.mesh.recycle(peer, Envelope(buf));
            } else if seq > expected {
                // The sender is one phase ahead (our envelope for this
                // round was dropped or is still in flight); park its
                // next-round envelope. Never dropped on the floor: a
                // lost buffer here would leak out of the sender's owed
                // accounting and wedge its reclaim.
                self.park(peer, buf);
            } else if crc32_words(&buf[HDR..]) as u64 != buf[2] {
                self.fstats.crc_failures += 1;
                self.note_fault("comm.fault.crc", seq as f64);
                self.mesh.recycle(peer, Envelope(buf));
                // Ask for the parked clean copy right away (does not
                // count against the timeout retry budget: the sender
                // provably holds a copy for a corrupted envelope).
                self.send_nack(peer, expected);
            } else {
                // Acceptance is the flow terminus even when the payload
                // arrived via retransmit: stale/corrupt copies above
                // were discarded without ending the flow, so exactly
                // one end fires per id.
                self.mesh.stamp_accepted(peer, tag, &buf);
                return Ok(Envelope(buf));
            }
        }
    }

    fn recycle(&self, peer: usize, env: Envelope) {
        self.mesh.recycle(peer, env);
    }

    /// Shutdown handshake: exchange one exempt envelope with every peer
    /// and wait for theirs, servicing retransmit requests throughout. A
    /// rank that returned early would otherwise strand a peer still
    /// waiting on one of its parked retransmits; after `quiesce`
    /// returns, every peer has completed its last faulted exchange, so
    /// tearing down the channels is safe.
    fn quiesce(&mut self) -> Result<(), CommError> {
        let rank = self.mesh.rank;
        let peers = (0..self.mesh.links.len()).filter(move |&p| p != rank);
        self.reclaim()?;
        for p in peers.clone() {
            let env = self.begin(p, TAG_QUIESCE, 0);
            self.send(p, env)?;
        }
        for p in peers {
            let env = self.recv(p, TAG_QUIESCE)?;
            self.recycle(p, env);
        }
        Ok(())
    }

    fn grow_count(&self) -> u64 {
        self.mesh.grow_count()
    }

    fn fault_stats(&self) -> FaultStats {
        self.fstats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::fault::{FaultConfig, RetryPolicy};
    use crate::comm::transport::tests::phase;

    /// Run `body(rank, endpoint)` on both endpoints of a two-rank mesh
    /// under `cfg`, one thread each; results in rank order. Neither
    /// endpoint hangs up before both bodies are done, so which error a
    /// failing body sees does not depend on which thread finishes first.
    fn on_two_ranks<R: Send>(
        cfg: FaultConfig,
        body: impl Fn(usize, &mut Reliable) -> R + Sync,
    ) -> Vec<R> {
        let ends = Reliable::wrap_all(Mesh::create_all(2), &FaultPlan::new(cfg));
        let both_done = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let handles: Vec<_> = ends
                .into_iter()
                .enumerate()
                .map(|(rank, mut end)| {
                    let (body, both_done) = (&body, &both_done);
                    scope.spawn(move || {
                        let result = body(rank, &mut end);
                        both_done.wait();
                        result
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn every_envelope_faulted_still_arrives_intact_and_in_order() {
        let cfg = FaultConfig {
            seed: 11,
            rate_per_1024: 1024,
            max_delay_ms: 1,
            policy: RetryPolicy {
                poll_ms: 1,
                nack_base_ms: 3,
                nack_cap_ms: 12,
                max_retries: 8,
            },
            dead_edge: None,
        };
        let results = on_two_ranks(cfg, |rank, end| {
            let peer = 1 - rank;
            let mut warm = 0;
            for round in 0..300 {
                // `phase` checks every received word against the
                // sender's round-`round` payload: intact and in order.
                phase(end, rank, round).unwrap();
                assert!(end.pending_retx[peer].len() <= 2, "round {round}");
                assert!(end.stash[peer].len() <= 2, "round {round}");
                if round == 20 {
                    warm = end.grow_count();
                }
            }
            end.quiesce().unwrap();
            (end.fault_stats(), warm, end.grow_count())
        });
        for (stats, warm, grow) in results {
            for (name, count) in &stats.entries()[..5] {
                assert!(*count > 0, "no {name} injected: {stats:?}");
            }
            assert!(stats.retransmits > 0 && stats.crc_failures > 0);
            assert_eq!(stats.timeouts, 0);
            assert_eq!(grow, warm, "pool grew after the first rounds");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test watchdog bounds real elapsed time so a deadlocked recovery path fails the test instead of hanging CI"
    )]
    fn dead_edge_fails_both_ends_within_the_retry_budget() {
        // Edge 0 → 1 dies at seq 3; no other faults.
        let mut cfg = FaultConfig::unrecoverable(5, 0, 1, 3);
        cfg.rate_per_1024 = 0;
        let budget = Duration::from_millis(cfg.policy.budget_ms());
        let results = on_two_ranks(cfg, |rank, end| {
            for round in 0.. {
                let started = Instant::now();
                if let Err(err) = phase(end, rank, round) {
                    return (round, err, started.elapsed());
                }
            }
            unreachable!()
        });
        // The receiver never gets seq 3 and exhausts its retries.
        let (round, err, waited) = &results[1];
        assert_eq!(*round, 3);
        assert!(
            matches!(
                err,
                CommError::Timeout {
                    rank: 1,
                    peer: 0,
                    phase: "forward",
                    seq: 3,
                    ..
                }
            ),
            "{err}"
        );
        assert!(*waited >= budget && *waited < 2 * budget, "{waited:?}");
        // The sender got the receiver's seq 3, then waits for a seq 4
        // that is never sent until its own budget runs out (in a run,
        // where a failed rank hangs up, it may see that first).
        let (round, err, waited) = &results[0];
        assert_eq!(*round, 4);
        assert!(
            matches!(
                err,
                CommError::PeerDisconnected {
                    rank: 0,
                    peer: 1,
                    ..
                } | CommError::Timeout {
                    rank: 0,
                    peer: 1,
                    ..
                }
            ),
            "{err}"
        );
        assert!(*waited < 2 * budget, "{waited:?}");
    }
}
