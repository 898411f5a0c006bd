//! The channel mesh under [`BrickComm`](super::brick::BrickComm): the
//! [`Transport`] contract, the envelope format, and [`Mesh`], the
//! blocking fault-free transport.
//!
//! Each rank runs on its own OS thread; exchanges move through
//! unbounded `std::sync::mpsc` channels, one data + one buffer-recycle
//! channel per directed rank pair. Because sends never block and every
//! phase is bulk-synchronous (all ranks send to all peers, then receive
//! in ascending rank order), the exchange sequence is deadlock-free
//! without barriers or any global lock.
//!
//! Every message travels inside a small envelope — `[tag, seq, crc]`
//! followed by the payload words — and this module is the only place
//! that knows it: callers fill an [`Envelope`] through
//! [`Envelope::push`] and read [`Envelope::payload`]. The per-edge
//! sequence number is deterministic (every phase sends exactly one
//! message per directed edge, empty or not), so both endpoints of an
//! edge count in lockstep. [`Mesh`] only debug-asserts it; the
//! [`Reliable`](super::reliable::Reliable) decorator uses it (and the
//! CRC word) to recover from injected faults.
//!
//! Message buffers live in a per-rank [`BufPool`]; receivers return
//! drained buffers through the recycle channel, so steady-state
//! exchanges allocate nothing (`Comm::grow_count` asserts this — the
//! same invariant the neighbor-list and scatter pools keep, see
//! `docs/performance.md`).

use crate::comm::fault::{flow_id, CommError, FaultStats};
use lkk_kokkos::profile;
use std::sync::mpsc::{channel, Receiver, Sender};

// Phase tags (word 0 of every message) catch sequence mismatches in
// debug builds: a desynced collective shows up as a tag assert, not as
// silently corrupt positions.
pub(super) const TAG_MIGRATE: u64 = 1;
pub(super) const TAG_BORDER: u64 = 2;
pub(super) const TAG_FORWARD: u64 = 3;
pub(super) const TAG_REVERSE: u64 = 4;
pub(super) const TAG_SCALAR: u64 = 5;
pub(super) const TAG_REDUCE: u64 = 6;
/// Shutdown handshake (fault mode only): exempt from injection, like a
/// finalize barrier riding a reliable control plane.
pub(super) const TAG_QUIESCE: u64 = 7;
/// Load-balance census exchange (only when a balance policy is
/// installed; a balance-off run never emits this tag, keeping its
/// per-edge sequence numbering identical to the pre-balancer layer).
pub(super) const TAG_BALANCE: u64 = 8;

/// Envelope words preceding the payload: `[tag, seq, crc]`.
pub(super) const HDR: usize = 3;

/// Human-readable phase name for [`CommError`] diagnostics.
pub(super) fn tag_name(tag: u64) -> &'static str {
    match tag {
        TAG_MIGRATE => "migrate",
        TAG_BORDER => "border",
        TAG_FORWARD => "forward",
        TAG_REVERSE => "reverse",
        TAG_SCALAR => "scalar",
        TAG_REDUCE => "reduce",
        TAG_QUIESCE => "quiesce",
        TAG_BALANCE => "balance",
        _ => "unknown",
    }
}

/// One message: the `[tag, seq, crc]` header written by
/// [`Transport::begin`], then the payload words the caller pushes.
pub(super) struct Envelope(pub(super) Vec<u64>);

impl Envelope {
    pub(super) fn push(&mut self, word: u64) {
        self.0.push(word);
    }

    pub(super) fn extend_from_slice(&mut self, words: &[u64]) {
        self.0.extend_from_slice(words);
    }

    pub(super) fn payload(&self) -> &[u64] {
        &self.0[HDR..]
    }
}

/// What [`BrickComm`](super::brick::BrickComm) needs from the layer
/// that moves envelopes between ranks. The transport owns the
/// per-edge sequence numbers, the owed-buffer accounting, the buffer
/// pool and the envelope header; the caller owns what the payload
/// means and the order of phases. Every phase must call, on every
/// rank: `reclaim`, then `begin` + `send` once per peer, then `recv` +
/// `recycle` once per peer in ascending peer order.
pub(super) trait Transport: Send {
    /// Pull every buffer sent in the previous phase back into the pool.
    fn reclaim(&mut self) -> Result<(), CommError>;

    /// Start an envelope toward `peer`: a pooled buffer sized for
    /// `payload_words`, header written.
    fn begin(&mut self, peer: usize, tag: u64, payload_words: usize) -> Envelope;

    /// Transmit a packed envelope (never blocks).
    fn send(&mut self, peer: usize, env: Envelope) -> Result<(), CommError>;

    /// The next envelope from `peer`, which must carry `tag`.
    fn recv(&mut self, peer: usize, tag: u64) -> Result<Envelope, CommError>;

    /// Return a drained envelope to its sender's pool.
    fn recycle(&self, peer: usize, env: Envelope);

    /// Drain in-flight traffic so every peer can shut down cleanly.
    fn quiesce(&mut self) -> Result<(), CommError>;

    /// Heap growths of the buffer pool since construction.
    fn grow_count(&self) -> u64;

    /// Cumulative fault-injection / recovery counters.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// The channel endpoints one rank holds toward one peer.
pub(super) struct Link {
    /// Data to the peer.
    tx: Sender<Vec<u64>>,
    /// Data from the peer.
    pub(super) rx: Receiver<Vec<u64>>,
    /// Returns the peer's drained buffers to its pool.
    recycle_tx: Sender<Vec<u64>>,
    /// This rank's buffers coming back from the peer.
    pub(super) recycle_rx: Receiver<Vec<u64>>,
    /// Buffers sent to the peer and not yet reclaimed. Reclaim waits
    /// for exactly this many, which makes the pool's contents — and
    /// therefore its `grow_count` — independent of thread timing.
    pub(super) owed: std::cell::Cell<usize>,
}

/// Persistent send-buffer pool. Buffers drain back through the recycle
/// channels; `grow_count` ticks only when a fresh allocation (or an
/// in-place capacity growth) was unavoidable, so steady state holds it
/// constant.
pub(super) struct BufPool {
    pub(super) free: Vec<Vec<u64>>,
    grow_count: u64,
}

impl BufPool {
    /// An empty buffer with room for `need` words: the tightest-fitting
    /// free buffer, or a fresh allocation when none fits. Capacities
    /// are rounded up to a power of two (min 1024 words) so small
    /// fluctuations in exchange sizes land in the same size class, and
    /// best-fit pairing keeps large buffers available for large
    /// requests instead of churning.
    pub(super) fn acquire(&mut self, need: usize) -> Vec<u64> {
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            if buf.capacity() >= need
                && best.is_none_or(|j: usize| buf.capacity() < self.free[j].capacity())
            {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let mut buf = self.free.swap_remove(i);
                buf.clear();
                buf
            }
            None => {
                // 2x headroom: exchange sizes fluctuate a few percent
                // step to step, and a fresh class must absorb that
                // without another growth (the steady-state assert).
                self.grow_count += 1;
                profile::note_instant(|| ("pool_grow", need as f64));
                Vec::with_capacity((need * 2).max(1024).next_power_of_two())
            }
        }
    }
}

/// One rank's endpoint of the fully connected channel mesh, and the
/// fault-free [`Transport`]: blocking receives, no CRC work, no
/// polling.
pub(super) struct Mesh {
    pub(super) rank: usize,
    /// `links[p]` is `Some` for every peer `p != rank`.
    pub(super) links: Vec<Option<Link>>,
    pub(super) pool: BufPool,
    /// Next sequence number to send per peer (lockstep with the peer's
    /// `recv_seq` for this edge; see the envelope docs above).
    pub(super) send_seq: Vec<u64>,
    /// Next sequence number expected per peer.
    pub(super) recv_seq: Vec<u64>,
}

/// An `n × n` grid of not-yet-claimed channel endpoints.
pub(super) fn endpoint_grid<E>(n: usize) -> Vec<Vec<Option<E>>> {
    (0..n).map(|_| (0..n).map(|_| None).collect()).collect()
}

impl Mesh {
    /// The fully connected set of `n` endpoints, in rank order.
    pub(super) fn create_all(n: usize) -> Vec<Mesh> {
        let mut data_tx = endpoint_grid(n);
        let mut data_rx = endpoint_grid(n);
        let mut rec_tx = endpoint_grid(n);
        let mut rec_rx = endpoint_grid(n);
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                // Data a → b; its buffers recycle b → a.
                let (tx, rx) = channel();
                data_tx[a][b] = Some(tx);
                data_rx[b][a] = Some(rx);
                let (tx, rx) = channel();
                rec_tx[b][a] = Some(tx);
                rec_rx[a][b] = Some(rx);
            }
        }
        (0..n)
            .map(|rank| {
                let links = (0..n)
                    .map(|p| {
                        (p != rank).then(|| Link {
                            tx: data_tx[rank][p].take().unwrap(),
                            rx: data_rx[rank][p].take().unwrap(),
                            recycle_tx: rec_tx[rank][p].take().unwrap(),
                            recycle_rx: rec_rx[rank][p].take().unwrap(),
                            owed: std::cell::Cell::new(0),
                        })
                    })
                    .collect();
                Mesh {
                    rank,
                    links,
                    pool: BufPool {
                        free: Vec::new(),
                        grow_count: 0,
                    },
                    send_seq: vec![0; n],
                    recv_seq: vec![0; n],
                }
            })
            .collect()
    }

    /// Put `buf` on the wire toward `peer` and count it as owed.
    pub(super) fn send_to(&self, peer: usize, buf: Vec<u64>) -> Result<(), CommError> {
        let link = self.links[peer].as_ref().unwrap();
        link.owed.set(link.owed.get() + 1);
        let tag = buf[0];
        link.tx.send(buf).map_err(|_| CommError::PeerDisconnected {
            rank: self.rank,
            peer,
            phase: tag_name(tag),
        })
    }

    /// Consume this edge's next send sequence number for `buf` and open
    /// its trace flow; returns the sequence number.
    pub(super) fn stamp_sent(&mut self, peer: usize, buf: &[u64]) -> u64 {
        let seq = self.send_seq[peer];
        let tag = buf[0];
        debug_assert_eq!(buf[1], seq, "envelope packed for a different round");
        self.send_seq[peer] = seq + 1;
        // Flow origin: the envelope is packed and about to leave. One
        // begin per (edge, tag, seq) — retransmits and duplicates are
        // re-deliveries of this same flow, not new ones. The quiesce
        // handshake rides the control plane and is not traced.
        if tag != TAG_QUIESCE {
            profile::note_flow_begin(|| (tag_name(tag), flow_id(self.rank, peer, tag, seq)));
        }
        seq
    }

    /// Accept `buf` as this edge's next expected envelope and close its
    /// trace flow.
    pub(super) fn stamp_accepted(&mut self, peer: usize, tag: u64, buf: &[u64]) {
        let expected = self.recv_seq[peer];
        debug_assert_eq!(buf[0], tag, "exchange sequence desynced");
        debug_assert_eq!(buf[1], expected, "envelope sequence desynced");
        self.recv_seq[peer] = expected + 1;
        // Flow terminus: the envelope identity is recomputed from the
        // same (edge, tag, seq) the sender stamped, so the ids match
        // without extra wire bytes.
        if tag != TAG_QUIESCE {
            profile::note_flow_end(|| (tag_name(tag), flow_id(peer, self.rank, tag, expected)));
        }
    }

    pub(super) fn disconnected(&self, peer: usize, phase: &'static str) -> CommError {
        CommError::PeerDisconnected {
            rank: self.rank,
            peer,
            phase,
        }
    }
}

impl Transport for Mesh {
    /// Waits for the exact count owed per peer. Waiting is
    /// deadlock-free: a peer recycles while draining its receives for
    /// the *previous* phase, which it must finish before it can
    /// participate in the phase this reclaim precedes — so every owed
    /// buffer is already in flight.
    fn reclaim(&mut self) -> Result<(), CommError> {
        // The `reclaim` span on a trace timeline is this rank *blocked*
        // on peers that have not yet drained the previous phase — the
        // simulated-MPI analogue of wait time in MPI_Send completion.
        let _span = profile::has_subscribers().then(|| profile::begin_region("reclaim"));
        for (p, link) in self.links.iter().enumerate() {
            let Some(link) = link else {
                continue;
            };
            for _ in 0..link.owed.get() {
                let buf = link
                    .recycle_rx
                    .recv()
                    .map_err(|_| self.disconnected(p, "reclaim"))?;
                self.pool.free.push(buf);
            }
            link.owed.set(0);
        }
        Ok(())
    }

    fn begin(&mut self, peer: usize, tag: u64, payload_words: usize) -> Envelope {
        let mut buf = self.pool.acquire(HDR + payload_words);
        buf.push(tag);
        buf.push(self.send_seq[peer]);
        buf.push(0);
        Envelope(buf)
    }

    fn send(&mut self, peer: usize, env: Envelope) -> Result<(), CommError> {
        self.stamp_sent(peer, &env.0);
        self.send_to(peer, env.0)
    }

    fn recv(&mut self, peer: usize, tag: u64) -> Result<Envelope, CommError> {
        let buf = self.links[peer]
            .as_ref()
            .unwrap()
            .rx
            .recv()
            .map_err(|_| self.disconnected(peer, tag_name(tag)))?;
        self.stamp_accepted(peer, tag, &buf);
        Ok(Envelope(buf))
    }

    fn recycle(&self, peer: usize, env: Envelope) {
        // The peer may already be shutting down at gather time; its
        // pool dying with it is fine.
        let _ = self.links[peer].as_ref().unwrap().recycle_tx.send(env.0);
    }

    /// Nothing is ever in flight past a fault-free receive.
    fn quiesce(&mut self) -> Result<(), CommError> {
        Ok(())
    }

    fn grow_count(&self) -> u64 {
        self.pool.grow_count
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;

    /// Rank `rank`'s payload in round `round` of [`phase`]: 0 to 40
    /// words that name their sender, round and position.
    pub(in crate::comm) fn payload_of(rank: usize, round: u64) -> Vec<u64> {
        let len = (round * 7 + rank as u64 * 3) % 41;
        (0..len)
            .map(|i| ((rank as u64) << 56) | (round << 16) | i)
            .collect()
    }

    /// One bulk-synchronous phase on a two-rank mesh: send this round's
    /// payload to the peer, receive the peer's and check every word.
    pub(in crate::comm) fn phase(
        t: &mut dyn Transport,
        rank: usize,
        round: u64,
    ) -> Result<(), CommError> {
        let peer = 1 - rank;
        t.reclaim()?;
        let words = payload_of(rank, round);
        let mut env = t.begin(peer, TAG_FORWARD, words.len());
        env.extend_from_slice(&words);
        t.send(peer, env)?;
        let env = t.recv(peer, TAG_FORWARD)?;
        assert_eq!(env.payload(), payload_of(peer, round), "round {round}");
        t.recycle(peer, env);
        Ok(())
    }

    #[test]
    fn bufpool_reaches_steady_state() {
        let mut pool = BufPool {
            free: Vec::new(),
            grow_count: 0,
        };
        let a = pool.acquire(10);
        assert!(a.capacity() >= 1024);
        pool.free.push(a);
        let after_first = pool.grow_count;
        for _ in 0..100 {
            let b = pool.acquire(500);
            pool.free.push(b);
        }
        assert_eq!(pool.grow_count, after_first, "pool grew in steady state");
    }

    #[test]
    fn mesh_round_trips_in_order_with_a_steady_pool() {
        let grows: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = Mesh::create_all(2)
                .into_iter()
                .enumerate()
                .map(|(rank, mut mesh)| {
                    scope.spawn(move || {
                        let mut warm = 0;
                        for round in 0..200 {
                            phase(&mut mesh, rank, round).unwrap();
                            if round == 2 {
                                warm = mesh.grow_count();
                            }
                        }
                        mesh.quiesce().unwrap();
                        assert_eq!(mesh.fault_stats(), FaultStats::default());
                        (warm, mesh.grow_count())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (warm, end) in grows {
            assert!(warm > 0, "the first rounds must allocate");
            assert_eq!(end, warm, "pool grew in steady state");
        }
    }

    #[test]
    fn dropped_peer_yields_peer_disconnected() {
        let mut meshes = Mesh::create_all(2);
        drop(meshes.pop());
        let mut mesh = meshes.pop().unwrap();
        let gone = |phase| CommError::PeerDisconnected {
            rank: 0,
            peer: 1,
            phase,
        };
        let env = mesh.begin(1, TAG_FORWARD, 1);
        assert_eq!(mesh.send(1, env).unwrap_err(), gone("forward"));
        assert_eq!(mesh.recv(1, TAG_REVERSE).err(), Some(gone("reverse")));
        // The failed send still counts as owed; nothing can return it.
        assert_eq!(mesh.reclaim().unwrap_err(), gone("reclaim"));
    }
}
