//! Message and byte accounting.
//!
//! The paper's complexity claims are stated as messages *per process*
//! (Sections 5.1.3, 8.1) or per decision (6.4), sometimes distinguishing
//! message size (Section 8 trades O(n²) messages for O(n²)-sized ones).
//! [`Metrics`] tracks sends per process and per message kind, plus bytes
//! via [`WireMessage::wire_size`].

use crate::process::ProcessId;
use std::collections::BTreeMap;

/// Implemented by simulation message types so the harness can meter them.
///
/// `kind` buckets counters (e.g. `"ack_req"`, `"rb_echo"`); `wire_size`
/// is the message's serialized size in bytes, which is what makes the
/// simulator's byte counts comparable with a socket's.
///
/// # Byte-accounting contract
///
/// **Modeled bytes are encoded bytes.** A `wire_size` is the length of
/// the message's `bgla_codec::Wire` encoding, field for field, and sits
/// next to the encoder it mirrors:
///
/// * **Counters** — lengths, process ids, rounds, timestamps, rbcast
///   tags, delta bases — are varints: `bgla_codec::var_len(v)` bytes,
///   one below 128, two below 16 384.
/// * **Tags** — the variant byte of every enum, message enums included —
///   cost 1 each.
/// * **Opaque words** — a `u64` value 8, a signature 64, a digest 64, a
///   proof id 16.
/// * **Containers** cost their varint length prefix plus the sum of
///   their elements; the set types cache that sum, so a send is metered
///   in `O(1)`.
///
/// For WTS, GWTS and RSM messages this is exact, and the workspace test
/// `modeled_bytes_are_encoded_bytes` holds every message of a run to it.
/// SbS and GSbS messages follow it too, except where they carry proofs:
///
/// * **Interned proofs** — a message carrying proven records is modeled
///   as transmitting each *distinct* attached proof once (deduplicated
///   by `ProofId`), not once per record; [`ProofSizes::interned_bytes`]
///   is that figure and is what `wire_size` includes.
///   [`ProofSizes::flat_bytes`] prices the copy-per-record form, which
///   is what the encoder ships today — so for `ack_req` and `nack` the
///   model is a lower bound on the encoding, never above it.
/// * **Proof references** — a delta payload may name a proof the
///   receiver already holds by its `ProofId` instead of re-shipping it:
///   a reference costs [`PROOF_REF_BYTES`] (16-byte id + 16 bytes of
///   per-entry framing), counted in [`ProofSizes::ref_bytes`] and in
///   `wire_size` — never the proof's full bytes.
///
/// `bgla_core`'s `SbsMsg`/`GsbsMsg` (and the delta payloads they embed)
/// cite this contract rather than re-deriving it per variant.
pub trait WireMessage: Clone + Send {
    /// Counter bucket for this message.
    fn kind(&self) -> &'static str;

    /// Serialized size in bytes (see the contract above).
    fn wire_size(&self) -> usize;

    /// Attached proof-of-safety accounting (signature algorithms): how
    /// many proofs the message references, how many are *distinct*, and
    /// their bytes under interned transmission (each distinct proof
    /// once per message — what `wire_size` counts) vs flat transmission
    /// (one copy per proven value). Messages without proofs — the
    /// default — report zeros.
    fn proof_sizes(&self) -> ProofSizes {
        ProofSizes::default()
    }

    /// One-pass send accounting: `(wire_size, proof_sizes)`. The engine
    /// calls this once per send; proof-carrying messages override it to
    /// compute both from a single walk of their payload (the default
    /// calls the two accessors separately).
    fn metered(&self) -> (usize, ProofSizes) {
        (self.wire_size(), self.proof_sizes())
    }
}

/// Modeled wire cost of shipping one proof *by reference* instead of by
/// value: its 16-byte `ProofId`-sized content hash plus 16 bytes of
/// per-entry framing. See the byte-accounting contract on
/// [`WireMessage`].
pub const PROOF_REF_BYTES: usize = 32;

/// Per-message proof accounting reported by [`WireMessage::proof_sizes`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProofSizes {
    /// Proof references (one per proven value carried).
    pub refs: u64,
    /// Distinct proofs shipped inline after per-message interning.
    pub distinct: u64,
    /// Distinct proofs shipped as [`PROOF_REF_BYTES`]-sized references
    /// to proofs the receiver already holds (delta payloads only).
    pub by_ref: u64,
    /// Bytes the inline distinct proofs occupy (interned wire format).
    pub interned_bytes: u64,
    /// Bytes paid for by-reference proofs (`by_ref × PROOF_REF_BYTES`).
    pub ref_bytes: u64,
    /// Bytes a flat encoding would pay (one full proof copy per value).
    pub flat_bytes: u64,
}

/// Per-run message accounting, filled in by the simulator on every send.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Metrics {
    /// Messages sent, indexed by sender.
    pub sent_by: Vec<u64>,
    /// Bytes sent, indexed by sender.
    pub bytes_by: Vec<u64>,
    /// Messages sent per kind (whole system).
    pub sent_by_kind: BTreeMap<&'static str, u64>,
    /// Bytes sent per kind (whole system).
    pub bytes_by_kind: BTreeMap<&'static str, u64>,
    /// Total deliveries performed.
    pub delivered: u64,
    /// Largest single message observed, in bytes.
    pub max_message_bytes: usize,
    /// Proof-of-safety references shipped (one per proven value).
    pub proof_refs: u64,
    /// Distinct proofs shipped inline after per-message interning.
    pub proofs_interned: u64,
    /// Distinct proofs shipped as id references (delta payloads naming
    /// proofs the receiver already holds).
    pub proofs_by_ref: u64,
    /// Proof bytes as transmitted inline (each distinct proof once per
    /// message) — already included in the byte totals.
    pub proof_bytes_interned: u64,
    /// Bytes paid for by-reference proofs ([`PROOF_REF_BYTES`] each) —
    /// already included in the byte totals.
    pub proof_ref_bytes: u64,
    /// Proof bytes a flat per-value encoding would have paid.
    pub proof_bytes_flat: u64,
    /// Transport frames written to a real wire (DATA/ACK/HELLO), first
    /// transmissions and retransmissions alike. Zero under the
    /// simulator, which has no frame layer.
    pub net_frames: u64,
    /// *Measured* bytes written to a real wire: the serialized frame
    /// sizes, including codec framing overhead — the ground truth the
    /// modeled [`WireMessage::wire_size`] figures are compared against.
    pub net_frame_bytes: u64,
    /// DATA frames retransmitted after an ack timeout (the masking path
    /// for dropped or reset frames).
    pub net_retransmits: u64,
    /// Duplicate DATA frames discarded by receive-side dedup (injected
    /// duplicates and spurious retransmissions).
    pub net_dup_frames: u64,
    /// Connection (re)establishments after a reset or partition —
    /// counts the backoff/resync masking path, not the first dial.
    pub net_reconnects: u64,
    /// Protocol messages dropped because a peer stayed down past the
    /// bounded outbox horizon — the one fault the transport *surfaces*
    /// instead of masking (see `bgla_net`'s reliability contract).
    pub net_outbox_dropped: u64,
}

impl Metrics {
    /// Zeroed accounting for an `n`-process system. Public so real
    /// transports (which meter their own sends) can build one; the
    /// simulator builds its own.
    pub fn new(n: usize) -> Self {
        Metrics {
            sent_by: vec![0; n],
            bytes_by: vec![0; n],
            sent_by_kind: BTreeMap::new(),
            bytes_by_kind: BTreeMap::new(),
            delivered: 0,
            max_message_bytes: 0,
            proof_refs: 0,
            proofs_interned: 0,
            proofs_by_ref: 0,
            proof_bytes_interned: 0,
            proof_ref_bytes: 0,
            proof_bytes_flat: 0,
            net_frames: 0,
            net_frame_bytes: 0,
            net_retransmits: 0,
            net_dup_frames: 0,
            net_reconnects: 0,
            net_outbox_dropped: 0,
        }
    }

    /// Accounts one protocol-message send. The simulator calls this on
    /// every outbound message; a real transport calls it too (public
    /// for that reason), so modeled per-kind counters stay comparable
    /// across runtimes.
    pub fn record_send(
        &mut self,
        from: ProcessId,
        kind: &'static str,
        bytes: usize,
        proofs: ProofSizes,
    ) {
        self.sent_by[from] += 1;
        self.bytes_by[from] += bytes as u64;
        *self.sent_by_kind.entry(kind).or_insert(0) += 1;
        *self.bytes_by_kind.entry(kind).or_insert(0) += bytes as u64;
        self.max_message_bytes = self.max_message_bytes.max(bytes);
        self.proof_refs += proofs.refs;
        self.proofs_interned += proofs.distinct;
        self.proofs_by_ref += proofs.by_ref;
        self.proof_bytes_interned += proofs.interned_bytes;
        self.proof_ref_bytes += proofs.ref_bytes;
        self.proof_bytes_flat += proofs.flat_bytes;
    }

    /// Total messages sent across all processes.
    pub fn total_sent(&self) -> u64 {
        self.sent_by.iter().sum()
    }

    /// Total bytes sent across all processes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_by.iter().sum()
    }

    /// Messages sent by one process.
    pub fn sent_by_process(&self, p: ProcessId) -> u64 {
        self.sent_by[p]
    }

    /// Maximum messages sent by any single process — the paper's
    /// "per process" complexity measure.
    pub fn max_sent_per_process(&self) -> u64 {
        self.sent_by.iter().copied().max().unwrap_or(0)
    }

    /// Messages sent by processes in `set` only (e.g. correct ones).
    pub fn sent_by_subset(&self, set: &[ProcessId]) -> u64 {
        set.iter().map(|&p| self.sent_by[p]).sum()
    }

    /// Folds another run's accounting into this one — used by the
    /// sharded experiment driver to aggregate per-seed runs. Runs with
    /// different process counts are aligned by index.
    pub fn merge(&mut self, other: &Metrics) {
        if other.sent_by.len() > self.sent_by.len() {
            self.sent_by.resize(other.sent_by.len(), 0);
            self.bytes_by.resize(other.bytes_by.len(), 0);
        }
        for (p, &v) in other.sent_by.iter().enumerate() {
            self.sent_by[p] += v;
        }
        for (p, &v) in other.bytes_by.iter().enumerate() {
            self.bytes_by[p] += v;
        }
        for (&k, &v) in &other.sent_by_kind {
            *self.sent_by_kind.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &other.bytes_by_kind {
            *self.bytes_by_kind.entry(k).or_insert(0) += v;
        }
        self.delivered += other.delivered;
        self.max_message_bytes = self.max_message_bytes.max(other.max_message_bytes);
        self.proof_refs += other.proof_refs;
        self.proofs_interned += other.proofs_interned;
        self.proofs_by_ref += other.proofs_by_ref;
        self.proof_bytes_interned += other.proof_bytes_interned;
        self.proof_ref_bytes += other.proof_ref_bytes;
        self.proof_bytes_flat += other.proof_bytes_flat;
        self.net_frames += other.net_frames;
        self.net_frame_bytes += other.net_frame_bytes;
        self.net_retransmits += other.net_retransmits;
        self.net_dup_frames += other.net_dup_frames;
        self.net_reconnects += other.net_reconnects;
        self.net_outbox_dropped += other.net_outbox_dropped;
    }
}

/// Blanket helpers for common primitive payloads used in unit tests.
impl WireMessage for u64 {
    fn kind(&self) -> &'static str {
        "u64"
    }
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireMessage for String {
    fn kind(&self) -> &'static str {
        "string"
    }
    fn wire_size(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut m = Metrics::new(3);
        m.record_send(0, "a", 10, ProofSizes::default());
        m.record_send(
            0,
            "b",
            20,
            ProofSizes {
                refs: 3,
                distinct: 2,
                by_ref: 1,
                interned_bytes: 12,
                ref_bytes: PROOF_REF_BYTES as u64,
                flat_bytes: 18,
            },
        );
        m.record_send(2, "a", 5, ProofSizes::default());
        assert_eq!(m.total_sent(), 3);
        assert_eq!(m.proof_refs, 3);
        assert_eq!(m.proofs_interned, 2);
        assert_eq!(m.proofs_by_ref, 1);
        assert_eq!(m.proof_bytes_interned, 12);
        assert_eq!(m.proof_ref_bytes, PROOF_REF_BYTES as u64);
        assert_eq!(m.proof_bytes_flat, 18);
        assert_eq!(m.total_bytes(), 35);
        assert_eq!(m.sent_by_process(0), 2);
        assert_eq!(m.max_sent_per_process(), 2);
        assert_eq!(m.sent_by_kind["a"], 2);
        assert_eq!(m.bytes_by_kind["b"], 20);
        assert_eq!(m.max_message_bytes, 20);
        assert_eq!(m.sent_by_subset(&[0, 1]), 2);
    }

    /// `merge` must fold every proof-accounting field (the PR 3/4
    /// interned / by-reference / flat counters) — the sharded experiment
    /// drivers rely on it, and a silently dropped field would corrupt
    /// every aggregated `exp_bytes` table.
    #[test]
    fn merge_covers_proof_accounting() {
        let proofs_a = ProofSizes {
            refs: 5,
            distinct: 2,
            by_ref: 1,
            interned_bytes: 100,
            ref_bytes: PROOF_REF_BYTES as u64,
            flat_bytes: 400,
        };
        let proofs_b = ProofSizes {
            refs: 3,
            distinct: 1,
            by_ref: 2,
            interned_bytes: 40,
            ref_bytes: 2 * PROOF_REF_BYTES as u64,
            flat_bytes: 90,
        };
        let mut a = Metrics::new(2);
        a.record_send(0, "ack_req", 150, proofs_a);
        let mut b = Metrics::new(2);
        b.record_send(1, "nack", 80, proofs_b);

        // Sequential reference: one Metrics fed both sends.
        let mut reference = Metrics::new(2);
        reference.record_send(0, "ack_req", 150, proofs_a);
        reference.record_send(1, "nack", 80, proofs_b);

        a.merge(&b);
        assert_eq!(a, reference, "merge dropped or doubled a field");
        // Spot-check the proof fields explicitly so a future field
        // rename keeps this pinned.
        assert_eq!(a.proof_refs, 8);
        assert_eq!(a.proofs_interned, 3);
        assert_eq!(a.proofs_by_ref, 3);
        assert_eq!(a.proof_bytes_interned, 140);
        assert_eq!(a.proof_ref_bytes, 3 * PROOF_REF_BYTES as u64);
        assert_eq!(a.proof_bytes_flat, 490);
        // Interned-vs-flat shape survives the merge: flat always prices
        // at least the interned + referenced transmission.
        assert!(a.proof_bytes_flat >= a.proof_bytes_interned + a.proof_ref_bytes);
    }

    /// Merging is associative and the empty Metrics is the identity —
    /// what lets the sharded driver fold per-cell results in any
    /// grouping.
    #[test]
    fn merge_is_associative_with_identity() {
        let mk = |from: usize, bytes: usize, refs: u64| {
            let mut m = Metrics::new(from + 1);
            m.record_send(
                from,
                "ack_req",
                bytes,
                ProofSizes {
                    refs,
                    distinct: refs / 2,
                    by_ref: refs / 3,
                    interned_bytes: refs * 10,
                    ref_bytes: (refs / 3) * PROOF_REF_BYTES as u64,
                    flat_bytes: refs * 25,
                },
            );
            m.delivered = refs;
            m
        };
        let (a, b, c) = (mk(0, 10, 6), mk(1, 20, 9), mk(2, 30, 12));

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge is not associative");

        let mut with_identity = Metrics::default();
        with_identity.merge(&left);
        assert_eq!(with_identity, left, "empty Metrics is not the identity");
    }

    #[test]
    fn merge_aggregates_runs() {
        let mut a = Metrics::new(2);
        a.record_send(0, "a", 10, ProofSizes::default());
        a.delivered = 1;
        let mut b = Metrics::new(3);
        b.record_send(2, "a", 30, ProofSizes::default());
        b.record_send(1, "b", 5, ProofSizes::default());
        b.delivered = 2;
        a.merge(&b);
        assert_eq!(a.sent_by, vec![1, 1, 1]);
        assert_eq!(a.total_bytes(), 45);
        assert_eq!(a.sent_by_kind["a"], 2);
        assert_eq!(a.delivered, 3);
        assert_eq!(a.max_message_bytes, 30);
    }
}
