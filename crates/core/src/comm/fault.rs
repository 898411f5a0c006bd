//! Deterministic fault injection and recovery for the brick comm layer.
//!
//! The paper's exascale runs assume halo exchange survives slow, lossy,
//! heterogeneous interconnects. Our simulated-MPI transport
//! ([`crate::comm::brick::BrickComm`]) historically assumed every
//! channel send/recv succeeded instantly, so a single stalled rank
//! wedged the whole scoped-thread run. This module supplies the two
//! halves of the robustness story:
//!
//! 1. **Injection** — a [`FaultPlan`]: an xorshift-seeded schedule of
//!    message *delay*, *drop*, *duplication*, *reorder*, and
//!    *payload-corruption* events, keyed by `(edge, seq)` where `seq`
//!    enumerates the (step, phase) exchanges on each directed rank pair
//!    in lockstep. The schedule is a pure function of
//!    `(seed, src, dst, seq)` — no RNG state threads through the run —
//!    so both endpoints of an edge agree on it and a replay with the
//!    same seed injects byte-identical faults.
//! 2. **Recovery** — the envelope protocol in `reliable.rs`: sequence
//!    numbers detect duplicates/reorders, a CRC32 over the payload
//!    detects corruption, per-phase receive timeouts with bounded
//!    exponential backoff send NACKs over a control channel, and the
//!    sender retransmits from pre-packed envelopes. The recovered
//!    payload is bit-identical to the clean transmission, so a run
//!    whose faults are all recoverable reproduces the fault-free
//!    trajectory *bitwise* (`tests/fault_injection.rs` pins this for a
//!    16-seed sweep at P ∈ {2, 4, 8}).
//!
//! When recovery is impossible (a [`DeadEdge`] that drops retransmits
//! too, or a vanished peer), the exchange returns a structured
//! [`CommError`] instead of deadlocking; [`RunSpec::run`](crate::driver::RunSpec::run) gathers
//! the per-rank errors into a [`CommFailure`](crate::driver::CommFailure).
//! See `docs/robustness.md` for the full fault model and determinism
//! contract.

use std::fmt;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A structured, per-rank communication failure. Every exchange method
/// of [`crate::comm::Comm`] returns `Result<_, CommError>`; multi-rank
/// drivers harvest these into per-rank diagnostics instead of letting a
/// stalled exchange deadlock the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The resilient receiver exhausted its retry budget waiting for a
    /// peer's message — the peer is alive but the edge is dead (every
    /// NACKed retransmit was lost too).
    Timeout {
        rank: usize,
        peer: usize,
        /// Exchange phase name (`"forward"`, `"border"`, ...).
        phase: &'static str,
        /// The per-edge sequence number that never arrived.
        seq: u64,
        /// NACK/backoff rounds spent before giving up.
        retries: u32,
        /// Total wall-clock waited, for the diagnostic only.
        waited_ms: u64,
    },
    /// A peer's channel endpoints dropped mid-exchange: its thread
    /// returned an error (or panicked) and tore down its comm.
    PeerDisconnected {
        rank: usize,
        peer: usize,
        phase: &'static str,
    },
    /// A rank thread panicked; the payload message is preserved for the
    /// gathered diagnostics.
    RankPanicked { rank: usize, message: String },
}

impl CommError {
    /// The rank this error was observed on.
    pub fn rank(&self) -> usize {
        match self {
            CommError::Timeout { rank, .. }
            | CommError::PeerDisconnected { rank, .. }
            | CommError::RankPanicked { rank, .. } => *rank,
        }
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout {
                rank,
                peer,
                phase,
                seq,
                retries,
                waited_ms,
            } => write!(
                f,
                "rank {rank}: {phase} recv from rank {peer} timed out at seq {seq} \
                 after {retries} retransmit requests ({waited_ms} ms)"
            ),
            CommError::PeerDisconnected { rank, peer, phase } => {
                write!(f, "rank {rank}: peer {peer} disconnected during {phase}")
            }
            CommError::RankPanicked { rank, message } => {
                write!(f, "rank {rank}: panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CommError {}

// ---------------------------------------------------------------------
// Fault schedule
// ---------------------------------------------------------------------

/// One kind of injected transport fault. At most one fault fires per
/// `(edge, seq)` event, which keeps the message-pool demand of the
/// recovery path a deterministic function of the plan (the steady-state
/// `pool_grow_after_warmup == 0` invariant extends to faulted runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sender stalls a bounded number of milliseconds before sending.
    Delay,
    /// The original transmission is lost; the packed envelope is parked
    /// as the retransmit copy and delivered on NACK.
    Drop,
    /// The envelope is delivered twice; the receiver discards the
    /// second copy by sequence number.
    Duplicate,
    /// A stale copy of the *previous* envelope on this edge is
    /// delivered first; the receiver discards it by sequence number.
    Reorder,
    /// One payload bit is flipped after the CRC is computed; the
    /// receiver detects the mismatch and NACKs for the clean copy.
    Corrupt,
}

const KINDS: [FaultKind; 5] = [
    FaultKind::Delay,
    FaultKind::Drop,
    FaultKind::Duplicate,
    FaultKind::Reorder,
    FaultKind::Corrupt,
];

/// A fault drawn for one `(edge, seq)` event, plus the auxiliary
/// randomness its application needs (delay length, corrupted bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub kind: FaultKind,
    /// Sleep length for [`FaultKind::Delay`], in `1..=max_delay_ms`.
    pub delay_ms: u64,
    /// Raw auxiliary bits (bit/word selection for corruption).
    pub aux: u64,
}

/// Receive-side timeout and retransmit policy: how long the resilient
/// receiver polls before asking for a retransmit, and how many
/// exponentially backed-off NACK rounds it spends before declaring the
/// edge dead with [`CommError::Timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// `recv_timeout` slice; every expiry also services inbound NACKs.
    pub poll_ms: u64,
    /// First NACK fires this long after the receive started.
    pub nack_base_ms: u64,
    /// Backoff doubles per round, capped here (bounded exponential).
    pub nack_cap_ms: u64,
    /// NACK rounds before giving up. Total budget is roughly
    /// `Σ min(base·2ᵏ, cap)` — keep it well under any CI watchdog.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            poll_ms: 1,
            nack_base_ms: 10,
            nack_cap_ms: 80,
            max_retries: 10,
        }
    }
}

impl RetryPolicy {
    /// Upper bound on the wall-clock one receive can spend before
    /// failing, in milliseconds (the watchdog budget tests assert on).
    pub fn budget_ms(&self) -> u64 {
        let mut total = 0;
        let mut backoff = self.nack_base_ms;
        for _ in 0..=self.max_retries {
            total += backoff;
            backoff = (backoff * 2).min(self.nack_cap_ms);
        }
        total
    }
}

/// An unrecoverable fault: from `from_seq` on, *every* transmission on
/// the directed edge `src → dst` is dropped, retransmits included. The
/// receiver exhausts its retries and the run aborts with structured
/// errors on all ranks — the no-deadlock path `tests/fault_injection.rs`
/// watchdogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadEdge {
    pub src: usize,
    pub dst: usize,
    pub from_seq: u64,
}

/// Seeded fault-injection configuration, shared verbatim by every rank
/// of a run (set `RunSpec::fault`; the transport is chosen from it when
/// the run's `BrickComm`s are created).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// Schedule seed; equal seeds inject identical fault schedules.
    pub seed: u64,
    /// Probability that an `(edge, seq)` event faults, in parts per
    /// 1024 (an integer draw keeps the schedule exactly portable).
    pub rate_per_1024: u32,
    /// Delay faults sleep `1..=max_delay_ms` milliseconds. Keep this
    /// well below `policy.nack_base_ms` or delays masquerade as drops.
    pub max_delay_ms: u64,
    pub policy: RetryPolicy,
    /// Unrecoverable mode: a dead edge that defeats retransmission.
    pub dead_edge: Option<DeadEdge>,
}

impl FaultConfig {
    /// A recoverable chaos schedule: ~3% of exchanges fault, delays up
    /// to 2 ms, default retry policy, no dead edge. Any run under this
    /// config must finish and reproduce the fault-free trajectory
    /// bitwise.
    pub fn recoverable(seed: u64) -> Self {
        FaultConfig {
            seed,
            rate_per_1024: 32,
            max_delay_ms: 2,
            policy: RetryPolicy::default(),
            dead_edge: None,
        }
    }

    /// An unrecoverable schedule: on top of light recoverable chaos,
    /// the edge `src → dst` goes permanently dead at `from_seq`. The
    /// retry policy is tightened so the abort lands well inside a test
    /// watchdog.
    pub fn unrecoverable(seed: u64, src: usize, dst: usize, from_seq: u64) -> Self {
        FaultConfig {
            seed,
            rate_per_1024: 8,
            max_delay_ms: 1,
            policy: RetryPolicy {
                poll_ms: 1,
                nack_base_ms: 4,
                nack_cap_ms: 16,
                max_retries: 5,
            },
            dead_edge: Some(DeadEdge { src, dst, from_seq }),
        }
    }
}

/// The per-rank view of a fault schedule: pure-function draws over
/// `(src, dst, seq)` plus the retry policy. Stateless by construction —
/// see the module docs for why that is the determinism anchor.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    pub fn policy(&self) -> RetryPolicy {
        self.cfg.policy
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when the directed edge is permanently dead at `seq`
    /// (originals *and* retransmits are discarded).
    pub fn edge_dead(&self, src: usize, dst: usize, seq: u64) -> bool {
        self.cfg
            .dead_edge
            .is_some_and(|d| d.src == src && d.dst == dst && seq >= d.from_seq)
    }

    /// The fault (if any) injected into the transmission of `seq` on
    /// the directed edge `src → dst`. Pure: any rank, any time, same
    /// answer.
    pub fn draw(&self, src: usize, dst: usize, seq: u64) -> Option<FaultEvent> {
        let mut s = mix64(
            self.cfg
                .seed
                .wrapping_add(0x9e37_79b9_7f4a_7c15)
                .wrapping_mul(0x2545_f491_4f6c_dd1d)
                ^ ((src as u64) << 42)
                ^ ((dst as u64) << 21)
                ^ seq.wrapping_mul(0xd6e8_feb8_6659_fd93),
        );
        // xorshift64* draws off the mixed state.
        let gate = xorshift64star(&mut s);
        if (gate & 1023) as u32 >= self.cfg.rate_per_1024 {
            return None;
        }
        let kind = KINDS[(xorshift64star(&mut s) % KINDS.len() as u64) as usize];
        let delay_ms = 1 + xorshift64star(&mut s) % self.cfg.max_delay_ms.max(1);
        let aux = xorshift64star(&mut s);
        Some(FaultEvent {
            kind,
            delay_ms,
            aux,
        })
    }
}

/// The globally unique identity of one envelope transmission, packed
/// into the 64-bit flow id the tracing layer stamps on its Perfetto
/// `s`/`f` events: `src:12 | dst:12 | tag:4 | seq:36`. The fields are
/// exactly the envelope identity both endpoints already agree on —
/// `(directed edge, phase tag, per-edge sequence number)` — so the
/// sender computes the id at dispatch and the receiver recomputes the
/// *same* id at acceptance without any extra bytes on the wire.
/// Retransmits and duplicates reuse the original's id (same seq), so a
/// recovered flow still binds exactly one begin to one end.
///
/// The layout holds for ≤ 4 096 ranks and ≤ 16 phase tags (thread-ranks
/// never approach the first; there are 8 tags) — both checked in
/// release, because an overflowing field would alias another flow
/// silently — and for 2³⁶ exchanges per directed edge: at ~5 exchanges
/// per step, over 10¹⁰ steps.
pub fn flow_id(src: usize, dst: usize, tag: u64, seq: u64) -> u64 {
    assert!(src < (1 << 12) && dst < (1 << 12), "rank field overflow");
    assert!(tag < (1 << 4), "tag field overflow");
    debug_assert!(seq < (1 << 36), "seq field overflow");
    ((src as u64) << 52) | ((dst as u64) << 40) | (tag << 36) | (seq & ((1 << 36) - 1))
}

/// SplitMix64 finalizer: one-shot avalanche of a 64-bit key.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One xorshift64* step (Marsaglia/Vigna); the schedule's draw stream.
fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

// ---------------------------------------------------------------------
// Fault/recovery counters
// ---------------------------------------------------------------------

/// Cumulative fault-injection and recovery counters of one comm
/// endpoint. All integers; summed over ranks by the rank-parallel
/// driver and harvested into the metrics registry as `comm.fault.*`
/// when a trace collector is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected: sender stalled before sending.
    pub delays: u64,
    /// Injected: original transmission withheld (recoverable drop) or
    /// discarded (dead edge).
    pub drops: u64,
    /// Injected: envelope sent twice.
    pub duplicates: u64,
    /// Injected: stale previous envelope sent first.
    pub reorders: u64,
    /// Injected: payload bit flipped after CRC.
    pub corruptions: u64,
    /// Recovery: retransmit requests sent after a receive timed out.
    pub nacks_sent: u64,
    /// Recovery: pre-packed envelopes resent in answer to a NACK.
    pub retransmits: u64,
    /// Recovery: duplicate/reordered envelopes discarded by seq.
    pub stale_discards: u64,
    /// Recovery: envelopes rejected by the CRC32 payload check.
    pub crc_failures: u64,
    /// Terminal: receives that exhausted the retry budget.
    pub timeouts: u64,
}

impl FaultStats {
    /// Element-wise sum (for aggregating per-rank stats).
    pub fn add(&mut self, other: &FaultStats) {
        self.delays += other.delays;
        self.drops += other.drops;
        self.duplicates += other.duplicates;
        self.reorders += other.reorders;
        self.corruptions += other.corruptions;
        self.nacks_sent += other.nacks_sent;
        self.retransmits += other.retransmits;
        self.stale_discards += other.stale_discards;
        self.crc_failures += other.crc_failures;
        self.timeouts += other.timeouts;
    }

    /// Total faults injected on the send side.
    pub fn injected(&self) -> u64 {
        self.delays + self.drops + self.duplicates + self.reorders + self.corruptions
    }

    /// Total recovery actions taken on the receive side.
    pub fn recovered(&self) -> u64 {
        self.nacks_sent + self.retransmits + self.stale_discards + self.crc_failures
    }

    /// `(name, value)` pairs in a fixed order, for metrics harvesting.
    pub fn entries(&self) -> [(&'static str, u64); 10] {
        [
            ("delays", self.delays),
            ("drops", self.drops),
            ("duplicates", self.duplicates),
            ("reorders", self.reorders),
            ("corruptions", self.corruptions),
            ("nacks_sent", self.nacks_sent),
            ("retransmits", self.retransmits),
            ("stale_discards", self.stale_discards),
            ("crc_failures", self.crc_failures),
            ("timeouts", self.timeouts),
        ]
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320)
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC32 of a word slice, bytes in little-endian word order. Computed
/// over envelope payloads only when a fault plan is installed — the
/// fault-free hot path never pays for it.
pub fn crc32_words(words: &[u64]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &w in words {
        for b in w.to_le_bytes() {
            c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // "123456789" has CRC32 0xCBF43926 under IEEE 802.3. Pack the
        // 9 ASCII bytes into words little-endian with zero padding and
        // check a pure-byte reference against the word-based fold.
        let bytes = b"123456789";
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        assert_eq!(!c, 0xCBF4_3926);
        // Word-based fold: deterministic and sensitive to every byte.
        let words = [0x1122_3344_5566_7788u64, 42];
        let base = crc32_words(&words);
        assert_ne!(base, crc32_words(&[0x1122_3344_5566_7789u64, 42]));
        assert_ne!(base, crc32_words(&[0x1122_3344_5566_7788u64, 43]));
        assert_eq!(base, crc32_words(&words));
        assert_eq!(crc32_words(&[]), 0);
    }

    #[test]
    fn draws_are_pure_and_seed_sensitive() {
        let plan = FaultPlan::new(FaultConfig::recoverable(7));
        for (src, dst, seq) in [(0, 1, 0), (1, 0, 5), (3, 2, 100)] {
            assert_eq!(plan.draw(src, dst, seq), plan.draw(src, dst, seq));
        }
        // Different seeds produce different schedules (measured over a
        // window large enough that a collision of all draws is
        // impossible by construction).
        let other = FaultPlan::new(FaultConfig::recoverable(8));
        let schedule = |p: &FaultPlan| -> Vec<Option<FaultEvent>> {
            (0..512).map(|seq| p.draw(0, 1, seq)).collect()
        };
        assert_ne!(schedule(&plan), schedule(&other));
    }

    #[test]
    fn rate_is_respected_and_all_kinds_occur() {
        let plan = FaultPlan::new(FaultConfig::recoverable(42));
        let mut hit = 0usize;
        let mut kinds = std::collections::BTreeSet::new();
        let total = 16 * 1024;
        for seq in 0..total {
            for (src, dst) in [(0usize, 1usize), (1, 0)] {
                if let Some(ev) = plan.draw(src, dst, seq) {
                    hit += 1;
                    kinds.insert(format!("{:?}", ev.kind));
                    assert!(ev.delay_ms >= 1 && ev.delay_ms <= 2);
                }
            }
        }
        let rate = hit as f64 / (2.0 * total as f64);
        let expect = 32.0 / 1024.0;
        assert!(
            (rate - expect).abs() < 0.01,
            "empirical fault rate {rate} far from configured {expect}"
        );
        assert_eq!(kinds.len(), 5, "not all fault kinds drawn: {kinds:?}");
    }

    #[test]
    fn zero_rate_never_faults() {
        let mut cfg = FaultConfig::recoverable(1);
        cfg.rate_per_1024 = 0;
        let plan = FaultPlan::new(cfg);
        assert!((0..4096).all(|seq| plan.draw(0, 1, seq).is_none()));
    }

    #[test]
    fn dead_edge_is_directional_and_seq_gated() {
        let plan = FaultPlan::new(FaultConfig::unrecoverable(3, 0, 1, 10));
        assert!(!plan.edge_dead(0, 1, 9));
        assert!(plan.edge_dead(0, 1, 10));
        assert!(plan.edge_dead(0, 1, 999));
        assert!(!plan.edge_dead(1, 0, 10), "dead edge must be directed");
        assert!(!plan.edge_dead(0, 2, 10));
    }

    #[test]
    fn retry_budget_is_bounded() {
        let p = RetryPolicy::default();
        // 10 + 20 + 40 + 80·8 = 710 ms — well inside any watchdog.
        assert_eq!(p.budget_ms(), 710);
        let tight = FaultConfig::unrecoverable(0, 0, 1, 0).policy;
        assert!(tight.budget_ms() < 200, "{}", tight.budget_ms());
    }

    #[test]
    fn flow_ids_are_injective_over_the_envelope_identity() {
        // Distinct (src, dst, tag, seq) tuples must map to distinct
        // ids — the one `s`-binds-one `f` trace invariant rests on it.
        let mut seen = std::collections::BTreeSet::new();
        for src in 0..4usize {
            for dst in 0..4usize {
                for tag in 1..=8u64 {
                    // The old 24-bit seq field aliased 2²⁴ with 0.
                    for seq in (0..32u64).chain([1 << 24, 1 << 35]) {
                        assert!(seen.insert(flow_id(src, dst, tag, seq)));
                    }
                }
            }
        }
        // Field placement: direction matters, and the receiver's
        // recomputation from the envelope header matches the sender's.
        assert_ne!(flow_id(0, 1, 3, 7), flow_id(1, 0, 3, 7));
        assert_eq!(flow_id(2, 5, 4, 9), flow_id(2, 5, 4, 9));
        assert_eq!(flow_id(0, 0, 0, 0), 0);
        assert_eq!(flow_id(1, 0, 0, 0), 1 << 52);
        assert_eq!(flow_id(0, 1, 0, 0), 1 << 40);
        assert_eq!(flow_id(0, 0, 1, 0), 1 << 36);
        assert_eq!(flow_id(0, 0, 0, (1 << 36) - 1), (1 << 36) - 1);
    }

    #[test]
    fn comm_error_formats_diagnostics() {
        let e = CommError::Timeout {
            rank: 2,
            peer: 5,
            phase: "forward",
            seq: 17,
            retries: 4,
            waited_ms: 93,
        };
        let text = e.to_string();
        for needle in ["rank 2", "rank 5", "forward", "seq 17", "4 retransmit"] {
            assert!(text.contains(needle), "{text}");
        }
        assert_eq!(e.rank(), 2);
        assert_eq!(
            CommError::PeerDisconnected {
                rank: 1,
                peer: 0,
                phase: "reverse"
            }
            .rank(),
            1
        );
    }
}
