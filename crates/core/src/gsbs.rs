//! **Generalized Safety by Signature** (GSbS) — the Section 8.2 sketch
//! made concrete.
//!
//! GWTS achieves round discipline by *reliably broadcasting* every
//! acceptor ack (`O(n²)` messages each). Section 8.2 replaces that with
//! signatures; the two functions of the ack broadcast are recovered as:
//!
//! 1. **Publicity of acceptance** → acceptors *sign* their point-to-point
//!    acks. A proposer holding `⌊(n+f)/2⌋+1` signed acks for the same
//!    `(digest, ts, round)` possesses a transferable *decided
//!    certificate*.
//! 2. **Public round termination** → before deciding, a proposer
//!    broadcasts a `decided` message carrying that certificate. A correct
//!    acceptor trusts round `r` only after trusting `r−1` **and** seeing
//!    a well-formed `decided` certificate for `r−1`. Certificates are
//!    re-forwarded once per process (the paper piggybacks them on ack
//!    replies; a one-shot forward has the same asymptotic cost and
//!    simpler structure), so termination knowledge spreads like the
//!    paper's piggybacking does.
//!
//! Per-round value safety uses the same init/safetying machinery as
//! [`crate::sbs`], applied to *round batches*: each proposer signs its
//! `(round, batch)`; a batch is safe with a quorum of signed safe-acks
//! none of which reports a conflict (two different batches signed by the
//! same proposer for the same round).
//!
//! Message complexity: `O(f·n)` per proposer per decision (Section 8.2).
//!
//! Like [`crate::sbs`], proofs of safety are verify-once: each distinct
//! proof's quorum checks run exactly once per process and are answered
//! from a per-process [`bgla_crypto::ProofCache`] thereafter (positive
//! and negative verdicts — see [`bgla_crypto::proofstore`] for what may
//! be cached). Batch-set payloads are [`ValueSet`]s (Arc-backed,
//! `O(1)` clone, merge-walk join).
//!
//! And like [`crate::sbs`], the proof-carrying payloads (`AckReq.proposed`
//! and `Nack.accepted`) travel as delta-encoded, proof-by-reference
//! [`ProvenUpdate`]s — the win compounds here because the proven
//! proposal is *cumulative across rounds*, so without deltas every round
//! re-ships every earlier round's batches and proofs. Gap handling and
//! the [`GsbsMsg::Resync`] fallback follow [`crate::provendelta`];
//! timestamps are monotone across rounds, so the sender-side snapshots
//! key deltas exactly as in SbS.

use crate::config::SystemConfig;
use crate::proof::{remove_conflicts, return_conflicts, Conflicting, Proof, ProofAck};
use crate::provendelta::{
    register_proofs, ProvenDeltaReceiver, ProvenDeltaSender, ProvenRecord, ProvenUpdate,
};
use crate::value::SignableValue;
use crate::valueset::{SetItem, ValueSet};
use bgla_codec::{decode_frame, encode_frame, var_len, CodecError, Reader, Wire, Writer};
use bgla_crypto::{
    sha512, CachedVerifier, Keypair, Keyring, ProofCache, ProofId, ProofResolver, Signature,
    ToBytes, VerifierStats,
};
use bgla_simnet::{Context, Process, ProcessId, ProofSizes, WireMessage};
use std::any::Any;
// bgla-lint: allow(determinism, "HashSet used membership-only in all_safe; iteration order never observed")
use std::collections::{BTreeMap, BTreeSet, HashSet};

const BATCH_DOMAIN: &[u8] = b"bgla-gsbs-batch:";
const SAFEACK_DOMAIN: &[u8] = b"bgla-gsbs-safeack:";
const ACK_DOMAIN: &[u8] = b"bgla-gsbs-ack:";

/// Digest of a proposal's value set (binds signed acks to contents).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Digest(pub [u8; 64]);

/// Digest of a set of values under the canonical encoding.
pub fn digest_values<V: SignableValue>(values: &ValueSet<V>) -> Digest {
    let mut bytes = Vec::new();
    (values.len() as u64).write_bytes(&mut bytes);
    for v in values {
        v.write_bytes(&mut bytes);
    }
    Digest(sha512(&bytes))
}

/// A proposer-signed round batch.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SignedBatch<V: SignableValue> {
    /// Round the batch belongs to.
    pub round: u64,
    /// The batched input values.
    pub batch: ValueSet<V>,
    /// Signing proposer.
    pub signer: ProcessId,
    /// Signature over (round, batch).
    pub sig: Signature,
}

impl<V: SignableValue> SignedBatch<V> {
    fn signable_bytes(round: u64, batch: &ValueSet<V>, signer: ProcessId) -> Vec<u8> {
        let mut out = BATCH_DOMAIN.to_vec();
        round.write_bytes(&mut out);
        (signer as u64).write_bytes(&mut out);
        (batch.len() as u64).write_bytes(&mut out);
        for v in batch {
            v.write_bytes(&mut out);
        }
        out
    }

    /// Signs a round batch.
    pub fn sign(round: u64, batch: ValueSet<V>, signer: ProcessId, kp: &Keypair) -> Self {
        let sig = kp.sign(&Self::signable_bytes(round, &batch, signer));
        SignedBatch {
            round,
            batch,
            signer,
            sig,
        }
    }

    /// Verifies the proposer's signature.
    pub fn verify(&self, ring: &Keyring) -> bool {
        ring.verify(
            self.signer,
            &Self::signable_bytes(self.round, &self.batch, self.signer),
            &self.sig,
        )
    }
}

impl<V: SignableValue> Conflicting for SignedBatch<V> {
    /// Same signer + round but different batch contents.
    fn conflicts_with(&self, other: &Self) -> bool {
        self.signer == other.signer && self.round == other.round && self.batch != other.batch
    }
}

impl<V: SignableValue> SetItem for SignedBatch<V> {
    const EQ_IS_IDENTITY: bool = true;
    fn wire_size(&self) -> usize {
        var_len(self.round) + self.batch.wire_size() + var_len(self.signer as u64) + 64
    }
}

/// Signed safetying reply for a round.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GSafeAck<V: SignableValue> {
    /// Round being safetied.
    pub round: u64,
    /// Echo of the request set.
    pub rcvd: ValueSet<SignedBatch<V>>,
    /// Conflicts known to the acceptor.
    pub conflicts: Vec<(SignedBatch<V>, SignedBatch<V>)>,
    /// Acceptor id.
    pub signer: ProcessId,
    /// Signature over all of the above.
    pub sig: Signature,
}

impl<V: SignableValue> GSafeAck<V> {
    /// Full canonical bytes of one echoed batch record: round, signer,
    /// batch values and signature. Both the ack signature and the
    /// [`ProofId`] digest must bind the *content* of every echoed
    /// record, not just its signature bytes — otherwise a forged record
    /// with swapped batch contents under the same sig bytes would
    /// collide with an honest proof's id and inherit its cached verdict
    /// (see the [`bgla_crypto::proofstore`] caching contract).
    fn write_batch_record(out: &mut Vec<u8>, sb: &SignedBatch<V>) {
        sb.round.write_bytes(out);
        (sb.signer as u64).write_bytes(out);
        (sb.batch.len() as u64).write_bytes(out);
        for v in &sb.batch {
            v.write_bytes(out);
        }
        out.extend_from_slice(&sb.sig.to_bytes());
    }

    fn signable_bytes(
        round: u64,
        rcvd: &ValueSet<SignedBatch<V>>,
        conflicts: &[(SignedBatch<V>, SignedBatch<V>)],
        signer: ProcessId,
    ) -> Vec<u8> {
        let mut out = SAFEACK_DOMAIN.to_vec();
        round.write_bytes(&mut out);
        (signer as u64).write_bytes(&mut out);
        (rcvd.len() as u64).write_bytes(&mut out);
        for sb in rcvd {
            Self::write_batch_record(&mut out, sb);
        }
        (conflicts.len() as u64).write_bytes(&mut out);
        for (a, b) in conflicts {
            Self::write_batch_record(&mut out, a);
            Self::write_batch_record(&mut out, b);
        }
        out
    }

    /// Builds and signs a safe-ack.
    pub fn sign(
        round: u64,
        rcvd: ValueSet<SignedBatch<V>>,
        conflicts: Vec<(SignedBatch<V>, SignedBatch<V>)>,
        signer: ProcessId,
        kp: &Keypair,
    ) -> Self {
        let sig = kp.sign(&Self::signable_bytes(round, &rcvd, &conflicts, signer));
        GSafeAck {
            round,
            rcvd,
            conflicts,
            signer,
            sig,
        }
    }

    /// Verifies the acceptor's signature.
    pub fn verify(&self, ring: &Keyring) -> bool {
        ring.verify(
            self.signer,
            &Self::signable_bytes(self.round, &self.rcvd, &self.conflicts, self.signer),
            &self.sig,
        )
    }

    /// Whether `sb` appears in a conflict pair.
    pub fn conflicted(&self, sb: &SignedBatch<V>) -> bool {
        self.conflicts.iter().any(|(a, b)| a == sb || b == sb)
    }
}

impl<V: SignableValue> ProofAck for GSafeAck<V> {
    fn digest_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&GSafeAck::signable_bytes(
            self.round,
            &self.rcvd,
            &self.conflicts,
            self.signer,
        ));
        out.extend_from_slice(&self.sig.to_bytes());
    }
    fn wire_size(&self) -> usize {
        var_len(self.round)
            + self.rcvd.wire_size()
            + var_len(self.conflicts.len() as u64)
            + self
                .conflicts
                .iter()
                .map(|(a, b)| SetItem::wire_size(a) + SetItem::wire_size(b))
                .sum::<usize>()
            + var_len(self.signer as u64)
            + 64
    }
}

/// A quorum of safe-acks certifying one round's safetying exchange,
/// with its [`ProofId`] interned at construction.
pub type BatchProof<V> = Proof<GSafeAck<V>>;

/// A batch with its quorum proof of safety.
#[derive(Debug, Clone)]
pub struct ProvenBatch<V: SignableValue> {
    /// The signed batch.
    pub sb: SignedBatch<V>,
    /// Quorum of safe-acks covering it.
    pub proof: BatchProof<V>,
}

impl<V: SignableValue> PartialEq for ProvenBatch<V> {
    fn eq(&self, other: &Self) -> bool {
        self.sb == other.sb
    }
}
impl<V: SignableValue> Eq for ProvenBatch<V> {}
impl<V: SignableValue> PartialOrd for ProvenBatch<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V: SignableValue> Ord for ProvenBatch<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sb.cmp(&other.sb)
    }
}

impl<V: SignableValue> SetItem for ProvenBatch<V> {
    /// `==` ignores the proof: joins must keep our own handles.
    const EQ_IS_IDENTITY: bool = false;
    fn wire_size(&self) -> usize {
        // The batch only; attached proofs are accounted separately
        // (shared proofs transmit once per message, or as a reference —
        // see the WireMessage byte-accounting contract).
        SetItem::wire_size(&self.sb)
    }
}

impl<V: SignableValue> ProvenRecord for ProvenBatch<V> {
    type Ack = GSafeAck<V>;
    fn proof(&self) -> &BatchProof<V> {
        &self.proof
    }
    fn with_proof(&self, proof: BatchProof<V>) -> Self {
        ProvenBatch {
            sb: self.sb.clone(),
            proof,
        }
    }
}

/// An acceptor-signed point-to-point ack (replaces GWTS's reliably
/// broadcast ack).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SignedAck {
    /// Proposer the ack answers.
    pub destination: ProcessId,
    /// Proposer's timestamp.
    pub ts: u64,
    /// Round.
    pub round: u64,
    /// Digest of the accepted value set.
    pub digest: Digest,
    /// Acceptor id.
    pub signer: ProcessId,
    /// Signature.
    pub sig: Signature,
}

impl SignedAck {
    /// Length of the [`Wire`] encoding: four counters, digest, signature.
    fn wire_size(&self) -> usize {
        var_len(self.destination as u64)
            + var_len(self.ts)
            + var_len(self.round)
            + self.digest.0.len()
            + var_len(self.signer as u64)
            + 64
    }

    fn signable_bytes(
        destination: ProcessId,
        ts: u64,
        round: u64,
        digest: &Digest,
        signer: ProcessId,
    ) -> Vec<u8> {
        let mut out = ACK_DOMAIN.to_vec();
        (destination as u64).write_bytes(&mut out);
        ts.write_bytes(&mut out);
        round.write_bytes(&mut out);
        out.extend_from_slice(&digest.0);
        (signer as u64).write_bytes(&mut out);
        out
    }

    /// Builds and signs an ack.
    pub fn sign(
        destination: ProcessId,
        ts: u64,
        round: u64,
        digest: Digest,
        signer: ProcessId,
        kp: &Keypair,
    ) -> Self {
        let sig = kp.sign(&Self::signable_bytes(
            destination,
            ts,
            round,
            &digest,
            signer,
        ));
        SignedAck {
            destination,
            ts,
            round,
            digest,
            signer,
            sig,
        }
    }

    /// Verifies the acceptor's signature.
    pub fn verify(&self, ring: &Keyring) -> bool {
        ring.verify(
            self.signer,
            &Self::signable_bytes(
                self.destination,
                self.ts,
                self.round,
                &self.digest,
                self.signer,
            ),
            &self.sig,
        )
    }
}

/// A transferable proof that round `round` legitimately ended with the
/// given value set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecidedCert<V: SignableValue> {
    /// The round that ended.
    pub round: u64,
    /// The committed value set.
    pub values: ValueSet<V>,
    /// Quorum of signed acks over `digest(values)`.
    pub acks: Vec<SignedAck>,
}

impl<V: SignableValue> DecidedCert<V> {
    /// Validates the certificate: quorum of valid acks from distinct
    /// acceptors over this round and the values' digest. Structural
    /// checks run first; the quorum's signatures are then verified in
    /// one batched Ed25519 check instead of one scalar-multiplication
    /// pair per ack.
    pub fn well_formed(&self, config: &SystemConfig, ring: &Keyring) -> bool {
        if self.acks.len() < config.quorum() {
            return false;
        }
        let digest = digest_values(&self.values);
        let mut signers = BTreeSet::new();
        let structural = self
            .acks
            .iter()
            .all(|a| a.round == self.round && a.digest == digest && signers.insert(a.signer));
        if !structural {
            return false;
        }
        let msgs: Vec<Vec<u8>> = self
            .acks
            .iter()
            .map(|a| SignedAck::signable_bytes(a.destination, a.ts, a.round, &a.digest, a.signer))
            .collect();
        let items: Vec<(usize, &[u8], Signature)> = self
            .acks
            .iter()
            .zip(&msgs)
            .map(|(a, m)| (a.signer, m.as_slice(), a.sig))
            .collect();
        ring.verify_batch(&items)
    }
}

/// GSbS wire messages.
#[derive(Debug, Clone)]
pub enum GsbsMsg<V: SignableValue> {
    /// Signed round batch, proposer → proposers.
    Init(SignedBatch<V>),
    /// Safetying request for one round.
    SafeReq {
        /// Round being safetied.
        round: u64,
        /// The proposer's collected signed batches for that round.
        set: ValueSet<SignedBatch<V>>,
    },
    /// Signed safetying reply.
    SafeAck(GSafeAck<V>),
    /// Proposal with proofs — delta-encoded with proof-by-reference
    /// after first contact.
    AckReq {
        /// Cumulative proven proposal (full, or delta + references).
        proposed: ProvenUpdate<ProvenBatch<V>>,
        /// Refinement timestamp.
        ts: u64,
        /// Round.
        round: u64,
    },
    /// Signed point-to-point ack.
    Ack(SignedAck),
    /// Refusal with the acceptor's proven set, delta-encoded against
    /// the refused proposal.
    Nack {
        /// Acceptor's accepted proven set (full, or delta against the
        /// proposal of `ts` + references).
        accepted: ProvenUpdate<ProvenBatch<V>>,
        /// Echoed timestamp.
        ts: u64,
        /// Echoed round.
        round: u64,
    },
    /// Acceptor → proposer: a delta payload did not resolve (unknown
    /// base or proof reference) — re-send `Full`. Never triggered by
    /// correct senders within the retention windows.
    Resync {
        /// Timestamp of the unresolvable `ack_req`.
        ts: u64,
        /// Its round.
        round: u64,
    },
    /// Round-termination certificate (broadcast before deciding,
    /// re-forwarded once by every correct process).
    Decided(DecidedCert<V>),
}

impl<V: SignableValue> WireMessage for GsbsMsg<V> {
    fn kind(&self) -> &'static str {
        match self {
            GsbsMsg::Init(_) => "init",
            GsbsMsg::SafeReq { .. } => "safe_req",
            GsbsMsg::SafeAck(_) => "safe_ack",
            GsbsMsg::AckReq { .. } => "ack_req",
            GsbsMsg::Ack(_) => "ack",
            GsbsMsg::Nack { .. } => "nack",
            GsbsMsg::Decided(_) => "decided",
            GsbsMsg::Resync { .. } => "resync",
        }
    }
    // Sizes follow the byte-accounting contract on
    // [`bgla_simnet::WireMessage`]: the variants without proofs are the
    // length of their encoding; proof-carrying payloads delegate to
    // [`ProvenUpdate::metered`], which prices interned proofs and
    // references.
    fn wire_size(&self) -> usize {
        self.metered().0
    }
    fn proof_sizes(&self) -> ProofSizes {
        match self {
            GsbsMsg::AckReq { proposed: pl, .. } | GsbsMsg::Nack { accepted: pl, .. } => {
                pl.metered().1
            }
            _ => ProofSizes::default(),
        }
    }
    fn metered(&self) -> (usize, ProofSizes) {
        // One walk per send: the proof dedup yields both the proof
        // accounting and the interned/referenced wire size.
        let plain = |bytes: usize| (1 + bytes, ProofSizes::default());
        match self {
            GsbsMsg::AckReq {
                proposed: pl,
                ts,
                round,
            }
            | GsbsMsg::Nack {
                accepted: pl,
                ts,
                round,
            } => {
                let (bytes, proofs) = pl.metered();
                (1 + bytes + var_len(*ts) + var_len(*round), proofs)
            }
            GsbsMsg::Init(sb) => plain(SetItem::wire_size(sb)),
            GsbsMsg::SafeReq { round, set } => plain(var_len(*round) + set.wire_size()),
            GsbsMsg::SafeAck(a) => plain(ProofAck::wire_size(a)),
            GsbsMsg::Ack(ack) => plain(ack.wire_size()),
            GsbsMsg::Decided(c) => plain(
                var_len(c.round)
                    + c.values.wire_size()
                    + var_len(c.acks.len() as u64)
                    + c.acks.iter().map(SignedAck::wire_size).sum::<usize>(),
            ),
            GsbsMsg::Resync { ts, round } => plain(var_len(*ts) + var_len(*round)),
        }
    }
}

/// Proposer phase within the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GsbsState {
    /// Collecting signed round batches.
    Init,
    /// Waiting on safe-acks for this round.
    Safetying,
    /// Proposing / refining.
    Proposing,
    /// Ran all `max_rounds` rounds.
    Done,
}

/// A correct GSbS participant.
pub struct GsbsProcess<V: SignableValue> {
    /// System parameters.
    pub config: SystemConfig,
    me: ProcessId,
    /// Per-round input schedule (like GWTS).
    pub input_schedule: BTreeMap<u64, Vec<V>>,
    /// Simulation horizon.
    pub max_rounds: u64,
    // bgla-lint: allow(wire-coverage, "crypto identity is provisioning input; from_snapshot re-supplies it, keys never live in snapshots")
    keypair: Keypair,
    // bgla-lint: allow(wire-coverage, "PKI handle re-supplied at construction and recovery; not serializable state")
    verifier: CachedVerifier,

    state: GsbsState,
    /// Current round.
    pub round: u64,
    ts: u64,
    /// Pending batches.
    batches: BTreeMap<u64, Vec<V>>,
    /// Collected signed batches per round (conflict-pruned).
    safety_sets: BTreeMap<u64, ValueSet<SignedBatch<V>>>,
    /// Collected safe-acks for our current safe_req.
    safe_acks: Vec<GSafeAck<V>>,
    safe_ack_senders: BTreeSet<ProcessId>,
    /// The exact set sent in the outstanding safe_req (safe-acks must
    /// echo it verbatim; `safety_sets` keeps growing in the meantime).
    current_safe_req: ValueSet<SignedBatch<V>>,
    /// Cumulative proven proposal.
    proposed_set: ValueSet<ProvenBatch<V>>,
    /// Signed acks gathered for the current (ts, round, digest).
    ack_certs: Vec<SignedAck>,
    /// Acceptor: safety candidates per round.
    safe_candidates: BTreeMap<u64, ValueSet<SignedBatch<V>>>,
    /// Acceptor: cumulative accepted proven set.
    accepted_set: ValueSet<ProvenBatch<V>>,
    /// Memoized full-proof verdicts, keyed by [`ProofId`].
    // bgla-lint: allow(wire-coverage, "verification cache; rebuilt empty after restart, verdicts are recomputed")
    proof_cache: ProofCache,
    /// Proposer-side delta bookkeeping (snapshots, reply watermarks,
    /// per-peer referenceable proof ids).
    // bgla-lint: allow(wire-coverage, "sender watermarks are peer-relative and deliberately amnesiac across crashes")
    delta_tx: ProvenDeltaSender<ProvenBatch<V>>,
    /// Acceptor-side delta bookkeeping (consumed bases, per-proposer
    /// referenceable proof ids).
    // bgla-lint: allow(wire-coverage, "delta bases are peer-relative; a restarted process resumes in full-set mode by design")
    delta_rx: ProvenDeltaReceiver<ProvenBatch<V>>,
    /// Verified-and-retained proof handles, resolvable by id when a
    /// peer ships a reference instead of the proof.
    resolver: ProofResolver<BatchProof<V>>,
    /// Acceptor: highest trusted round.
    pub safe_r: u64,
    /// Valid decided certificates seen, by round.
    decided_certs: BTreeMap<u64, DecidedCert<V>>,
    /// Rounds whose certificate we already re-forwarded.
    forwarded: BTreeSet<u64>,
    /// Buffered messages awaiting guards.
    waiting: Vec<(ProcessId, GsbsMsg<V>)>,
    /// Cumulative decision floor.
    decided_set: ValueSet<V>,
    /// Set by [`GsbsProcess::from_snapshot`]: the next `on_start` is a
    /// *recovery* boot (re-announce instead of initialize).
    // bgla-lint: allow(wire-coverage, "boot flag: decode sets it true to mark a recovered process")
    recovered: bool,

    /// Decision sequence.
    pub decisions: Vec<ValueSet<V>>,
    /// Causal depth per decision.
    pub decision_depths: Vec<u64>,
    /// All inputs this process proposed.
    pub all_inputs: Vec<V>,
}

impl<V: SignableValue> GsbsProcess<V> {
    /// Creates a participant with a per-round input schedule.
    pub fn new(
        me: ProcessId,
        config: SystemConfig,
        input_schedule: BTreeMap<u64, Vec<V>>,
        max_rounds: u64,
    ) -> Self {
        GsbsProcess {
            config,
            me,
            input_schedule,
            max_rounds,
            keypair: Keypair::for_process(me),
            verifier: CachedVerifier::new(Keyring::for_system(config.n)),
            state: GsbsState::Init,
            round: 0,
            ts: 0,
            batches: BTreeMap::new(),
            safety_sets: BTreeMap::new(),
            safe_acks: Vec::new(),
            safe_ack_senders: BTreeSet::new(),
            current_safe_req: ValueSet::new(),
            proposed_set: ValueSet::new(),
            ack_certs: Vec::new(),
            safe_candidates: BTreeMap::new(),
            accepted_set: ValueSet::new(),
            proof_cache: ProofCache::default(),
            delta_tx: ProvenDeltaSender::new(),
            delta_rx: ProvenDeltaReceiver::new(),
            resolver: ProofResolver::default(),
            safe_r: 0,
            decided_certs: BTreeMap::new(),
            forwarded: BTreeSet::new(),
            waiting: Vec::new(),
            decided_set: ValueSet::new(),
            recovered: false,
            decisions: Vec::new(),
            decision_depths: Vec::new(),
            all_inputs: Vec::new(),
        }
    }

    /// Process id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Current phase.
    pub fn state(&self) -> GsbsState {
        self.state
    }

    /// The values of the cumulative proven proposal (union of proposed
    /// batches) — read by the conformance observers to emit
    /// refine-snapshot op events.
    pub fn proposed_values(&self) -> ValueSet<V> {
        let mut out = ValueSet::new();
        for pb in self.proposed_set.iter() {
            out.join_with(&pb.sb.batch);
        }
        out
    }

    /// Cryptographic-work counters of this process's verifier.
    pub fn verifier_stats(&self) -> VerifierStats {
        self.verifier.stats()
    }

    /// `(hits, misses)` of the proof-verdict cache.
    pub fn proof_cache_stats(&self) -> (u64, u64) {
        self.proof_cache.stats()
    }

    fn batch_obligation(sb: &SignedBatch<V>) -> (usize, Vec<u8>, Signature) {
        (
            sb.signer,
            SignedBatch::signable_bytes(sb.round, &sb.batch, sb.signer),
            sb.sig,
        )
    }

    fn safe_ack_obligation(a: &GSafeAck<V>) -> (usize, Vec<u8>, Signature) {
        (
            a.signer,
            GSafeAck::signable_bytes(a.round, &a.rcvd, &a.conflicts, a.signer),
            a.sig,
        )
    }

    fn verify_signed_batch(&mut self, sb: &SignedBatch<V>) -> bool {
        let (signer, msg, sig) = Self::batch_obligation(sb);
        self.verifier.verify(signer, &msg, &sig)
    }

    fn ack_obligation(a: &SignedAck) -> (usize, Vec<u8>, Signature) {
        (
            a.signer,
            SignedAck::signable_bytes(a.destination, a.ts, a.round, &a.digest, a.signer),
            a.sig,
        )
    }

    fn verify_signed_ack(&mut self, a: &SignedAck) -> bool {
        let (signer, msg, sig) = Self::ack_obligation(a);
        self.verifier.verify(signer, &msg, &sig)
    }

    /// `AllSafe` over proven batches — incremental, like
    /// [`crate::sbs::SbsProcess::all_safe`]: per `(batch, proof)` pair
    /// only the cheap round/coverage/conflict comparisons run; the
    /// value-independent part of each *distinct* proof
    /// (`proof_valid`) is answered from the per-process
    /// [`ProofCache`] — positive and negative verdicts — when seen
    /// before. A covered batch's own signature is certified by
    /// membership: the pair check is full record equality against an
    /// `rcvd` echo whose every record `proof_valid` verified.
    ///
    /// Public for the verification-count tests; protocol handlers are
    /// the real callers.
    pub fn all_safe(&mut self, set: &ValueSet<ProvenBatch<V>>) -> bool {
        let quorum = self.config.quorum();
        // bgla-lint: allow(determinism, "membership-only dedup set (insert/contains); iteration order never observed")
        let mut checked: HashSet<ProofId> = HashSet::with_capacity(set.len());
        for pb in set.iter() {
            // Pair checks — batch ↔ proof relations are never cached
            // (see the contract in `bgla_crypto::proofstore`).
            for ack in pb.proof.iter() {
                if ack.round != pb.sb.round || !ack.rcvd.contains(&pb.sb) || ack.conflicted(&pb.sb)
                {
                    return false;
                }
            }
            let id = pb.proof.id();
            if !checked.insert(id) {
                continue; // another batch in this set shares the proof
            }
            match self.proof_cache.get(id) {
                Some(true) => continue,
                Some(false) => return false,
                None => {}
            }
            let ok = Self::proof_valid(&mut self.verifier, quorum, &pb.proof);
            self.proof_cache.put(id, ok);
            if !ok {
                return false;
            }
        }
        true
    }

    /// The value-independent proof checks — exactly the verdict
    /// [`ProofCache`] may memoize: quorum size, signer distinctness,
    /// and one batched signature verification covering every ack *and*
    /// every distinct signed batch the acks echo in their `rcvd` sets.
    /// The acks of a quorum echo mostly the same batches, so each is
    /// encoded (and its cache key hashed) once per proof, in first-echo
    /// order.
    fn proof_valid(verifier: &mut CachedVerifier, quorum: usize, proof: &BatchProof<V>) -> bool {
        if proof.len() < quorum {
            return false;
        }
        let mut signers = BTreeSet::new();
        let mut echoed = BTreeSet::new();
        let mut obligations: Vec<(usize, Vec<u8>, Signature)> = Vec::new();
        for ack in proof.iter() {
            if !signers.insert(ack.signer) {
                return false; // duplicate signer
            }
            obligations.push(Self::safe_ack_obligation(ack));
            for sb in ack.rcvd.iter().filter(|sb| echoed.insert(*sb)) {
                obligations.push(Self::batch_obligation(sb));
            }
        }
        verifier.verify_all(&obligations)
    }

    fn values_of(set: &ValueSet<ProvenBatch<V>>) -> ValueSet<V> {
        set.iter()
            .flat_map(|pb| pb.sb.batch.iter().cloned())
            .collect()
    }

    fn start_round(&mut self, round: u64, ctx: &mut Context<GsbsMsg<V>>) {
        self.round = round;
        self.state = GsbsState::Init;
        self.safe_acks.clear();
        self.safe_ack_senders.clear();
        if let Some(vals) = self.input_schedule.remove(&round) {
            for v in vals {
                self.all_inputs.push(v.clone());
                self.batches.entry(round).or_default().push(v);
            }
        }
        let batch: ValueSet<V> = self
            .batches
            .remove(&round)
            .unwrap_or_default()
            .into_iter()
            .collect();
        let sb = SignedBatch::sign(round, batch, self.me, &self.keypair);
        self.verifier.record_own(&Self::batch_obligation(&sb));
        self.safety_sets
            .entry(round)
            .or_default()
            .insert(sb.clone());
        ctx.broadcast(GsbsMsg::Init(sb));
        self.maybe_start_safetying(ctx);
    }

    fn maybe_start_safetying(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        if self.state != GsbsState::Init {
            return;
        }
        let set = self.safety_sets.entry(self.round).or_default().clone();
        if set.len() >= self.config.disclosure_threshold() {
            self.state = GsbsState::Safetying;
            self.current_safe_req = set.clone();
            ctx.broadcast(GsbsMsg::SafeReq {
                round: self.round,
                set,
            });
        }
    }

    fn maybe_start_proposing(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        if self.state != GsbsState::Safetying || self.safe_acks.len() < self.config.quorum() {
            return;
        }
        let proof: BatchProof<V> = Proof::new(self.safe_acks.clone());
        // Locally assembled and retained: referenceable from now on.
        self.resolver.register(proof.id(), proof.clone());
        let set = self.current_safe_req.clone();
        for sb in set.iter() {
            let conflicted = proof.iter().any(|a| a.conflicted(sb));
            if !conflicted {
                self.proposed_set.insert(ProvenBatch {
                    sb: sb.clone(),
                    proof: proof.clone(),
                });
            }
        }
        self.state = GsbsState::Proposing;
        self.ts += 1;
        self.ack_certs.clear();
        self.broadcast_proposal(ctx);
        self.try_adopt_certificate(ctx);
    }

    /// Broadcasts the cumulative proposal, delta-encoded per peer (full
    /// on first contact or after a resync).
    fn broadcast_proposal(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        self.delta_tx.record_broadcast(self.ts, &self.proposed_set);
        let updates = self
            .delta_tx
            .encode_broadcast(self.config.n, self.ts, &self.proposed_set);
        for (to, proposed) in updates.into_iter().enumerate() {
            ctx.send(
                to,
                GsbsMsg::AckReq {
                    proposed,
                    ts: self.ts,
                    round: self.round,
                },
            );
        }
    }

    fn decide(&mut self, values: ValueSet<V>, ctx: &mut Context<GsbsMsg<V>>) {
        self.decisions.push(values.clone());
        self.decision_depths.push(ctx.depth);
        self.decided_set = values;
        let next = self.round + 1;
        if next < self.max_rounds {
            self.start_round(next, ctx);
        } else {
            self.state = GsbsState::Done;
        }
    }

    /// Adopts a seen certificate for the current round if it preserves
    /// Local Stability.
    fn try_adopt_certificate(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        while self.state == GsbsState::Proposing {
            let Some(cert) = self.decided_certs.get(&self.round) else {
                return;
            };
            if self.decided_set.is_subset(&cert.values) {
                let values = cert.values.clone();
                self.decide(values, ctx);
            } else {
                return;
            }
        }
    }

    fn advance_safe_r(&mut self) {
        while self.decided_certs.contains_key(&self.safe_r) {
            self.safe_r += 1;
        }
    }

    /// Registers a certificate (assumed well-formed), forwards it once,
    /// and updates trust.
    fn absorb_certificate(&mut self, cert: DecidedCert<V>, ctx: &mut Context<GsbsMsg<V>>) {
        let round = cert.round;
        if let std::collections::btree_map::Entry::Vacant(e) = self.decided_certs.entry(round) {
            e.insert(cert.clone());
            if self.forwarded.insert(round) {
                ctx.broadcast(GsbsMsg::Decided(cert));
            }
            self.advance_safe_r();
        }
    }

    fn try_handle(
        &mut self,
        from: ProcessId,
        msg: &GsbsMsg<V>,
        ctx: &mut Context<GsbsMsg<V>>,
    ) -> bool {
        match msg {
            GsbsMsg::AckReq {
                proposed,
                ts,
                round,
            } => {
                if *round > self.safe_r {
                    return false;
                }
                let Some(proposed) = self.delta_rx.resolve(from, proposed, &mut self.resolver)
                else {
                    // Delta gap: unknown base or proof reference. Ask
                    // for the full payload (see crate::provendelta).
                    ctx.send(
                        from,
                        GsbsMsg::Resync {
                            ts: *ts,
                            round: *round,
                        },
                    );
                    return true;
                };
                if !self.all_safe(&proposed) {
                    return true; // forged proof: drop outright
                }
                // Consumed: the set becomes a delta base, its proofs
                // become referenceable (by us, and back at the sender).
                register_proofs(&mut self.resolver, &proposed);
                self.delta_rx.record(from, *ts, &proposed);
                let acc_vals = Self::values_of(&self.accepted_set);
                let prop_vals = Self::values_of(&proposed);
                if acc_vals.is_subset(&prop_vals) {
                    self.accepted_set = proposed;
                    let digest = digest_values(&prop_vals);
                    let ack = SignedAck::sign(from, *ts, *round, digest, self.me, &self.keypair);
                    self.verifier.record_own(&Self::ack_obligation(&ack));
                    ctx.send(from, GsbsMsg::Ack(ack));
                } else {
                    // The refusal deltas against the refused proposal —
                    // a base the proposer holds by construction.
                    let accepted =
                        self.delta_rx
                            .encode_reply(from, *ts, &proposed, &self.accepted_set);
                    ctx.send(
                        from,
                        GsbsMsg::Nack {
                            accepted,
                            ts: *ts,
                            round: *round,
                        },
                    );
                    self.accepted_set.join_with(&proposed);
                }
                true
            }
            GsbsMsg::Nack {
                accepted,
                ts,
                round,
            } => {
                self.delta_tx.record_reply(from, *ts);
                if *round < self.round
                    || (*round == self.round && *ts < self.ts)
                    || self.state == GsbsState::Done
                {
                    return true; // stale
                }
                if self.state != GsbsState::Proposing || *round != self.round || *ts != self.ts {
                    return false;
                }
                let Some(accepted) = self.delta_tx.resolve_reply(accepted, &mut self.resolver)
                else {
                    // A reply gap deltas against our own snapshot and
                    // references only proofs we shipped — Byzantine.
                    // GSbS keeps no exclusion set (unlike SbS's `byz`),
                    // so the nack is dropped like any other invalid
                    // refusal; the cost is bounded by the adversary's
                    // own message budget.
                    return true;
                };
                let acc_vals = Self::values_of(&accepted);
                let prop_vals = Self::values_of(&self.proposed_set);
                if !acc_vals.is_subset(&prop_vals) && self.all_safe(&accepted) {
                    register_proofs(&mut self.resolver, &accepted);
                    self.delta_tx.note_peer_holds(from, &accepted);
                    self.proposed_set.join_with(&accepted);
                    self.ts += 1;
                    self.ack_certs.clear();
                    self.broadcast_proposal(ctx);
                }
                true
            }
            // bgla-lint: allow(byzantine-panic, "local invariant: the buffering site only ever stores ack_req / nack")
            _ => unreachable!("only ack_req / nack are buffered"),
        }
    }

    fn drain_waiting(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.waiting.len() {
                // bgla-lint: allow(byzantine-panic, "i < waiting.len() loop guard")
                let (from, msg) = self.waiting[i].clone();
                if self.try_handle(from, &msg, ctx) {
                    self.waiting.remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Durable state (crash snapshots)
// ---------------------------------------------------------------------------

/// Frame kind tag for GSbS process snapshots.
pub const GSBS_SNAPSHOT_KIND: u16 = 0x0104;

impl Wire for Digest {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Digest(Wire::decode(r)?))
    }
}

/// Codec forms carry signatures verbatim without verifying them —
/// snapshots are checksummed local state, and every network consumption
/// site re-verifies through the [`CachedVerifier`] anyway.
impl<V: SignableValue> Wire for SignedBatch<V> {
    fn encode(&self, w: &mut Writer) {
        w.var(self.round);
        self.batch.encode(w);
        w.usize(self.signer);
        self.sig.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SignedBatch {
            round: r.var()?,
            batch: Wire::decode(r)?,
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

impl<V: SignableValue> Wire for GSafeAck<V> {
    fn encode(&self, w: &mut Writer) {
        w.var(self.round);
        self.rcvd.encode(w);
        self.conflicts.encode(w);
        w.usize(self.signer);
        self.sig.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GSafeAck {
            round: r.var()?,
            rcvd: Wire::decode(r)?,
            conflicts: Wire::decode(r)?,
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

impl<V: SignableValue> Wire for ProvenBatch<V> {
    fn encode(&self, w: &mut Writer) {
        self.sb.encode(w);
        self.proof.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ProvenBatch {
            sb: Wire::decode(r)?,
            proof: Wire::decode(r)?,
        })
    }
}

impl Wire for SignedAck {
    fn encode(&self, w: &mut Writer) {
        w.usize(self.destination);
        w.var(self.ts);
        w.var(self.round);
        self.digest.encode(w);
        w.usize(self.signer);
        self.sig.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SignedAck {
            destination: r.usize()?,
            ts: r.var()?,
            round: r.var()?,
            digest: Wire::decode(r)?,
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

impl<V: SignableValue> Wire for DecidedCert<V> {
    fn encode(&self, w: &mut Writer) {
        w.var(self.round);
        self.values.encode(w);
        self.acks.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(DecidedCert {
            round: r.var()?,
            values: Wire::decode(r)?,
            acks: Wire::decode(r)?,
        })
    }
}

impl<V: SignableValue> Wire for GsbsMsg<V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            GsbsMsg::Init(sb) => {
                w.u8(0);
                sb.encode(w);
            }
            GsbsMsg::SafeReq { round, set } => {
                w.u8(1);
                w.var(*round);
                set.encode(w);
            }
            GsbsMsg::SafeAck(ack) => {
                w.u8(2);
                ack.encode(w);
            }
            GsbsMsg::AckReq {
                proposed,
                ts,
                round,
            } => {
                w.u8(3);
                proposed.encode(w);
                w.var(*ts);
                w.var(*round);
            }
            GsbsMsg::Ack(ack) => {
                w.u8(4);
                ack.encode(w);
            }
            GsbsMsg::Nack {
                accepted,
                ts,
                round,
            } => {
                w.u8(5);
                accepted.encode(w);
                w.var(*ts);
                w.var(*round);
            }
            GsbsMsg::Resync { ts, round } => {
                w.u8(6);
                w.var(*ts);
                w.var(*round);
            }
            GsbsMsg::Decided(cert) => {
                w.u8(7);
                cert.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(GsbsMsg::Init(Wire::decode(r)?)),
            1 => Ok(GsbsMsg::SafeReq {
                round: r.var()?,
                set: Wire::decode(r)?,
            }),
            2 => Ok(GsbsMsg::SafeAck(Wire::decode(r)?)),
            3 => Ok(GsbsMsg::AckReq {
                proposed: Wire::decode(r)?,
                ts: r.var()?,
                round: r.var()?,
            }),
            4 => Ok(GsbsMsg::Ack(Wire::decode(r)?)),
            5 => Ok(GsbsMsg::Nack {
                accepted: Wire::decode(r)?,
                ts: r.var()?,
                round: r.var()?,
            }),
            6 => Ok(GsbsMsg::Resync {
                ts: r.var()?,
                round: r.var()?,
            }),
            7 => Ok(GsbsMsg::Decided(Wire::decode(r)?)),
            _ => Err(CodecError::Invalid("gsbs msg tag")),
        }
    }
}

impl Wire for GsbsState {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            GsbsState::Init => 0,
            GsbsState::Safetying => 1,
            GsbsState::Proposing => 2,
            GsbsState::Done => 3,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => GsbsState::Init,
            1 => GsbsState::Safetying,
            2 => GsbsState::Proposing,
            3 => GsbsState::Done,
            _ => return Err(CodecError::Invalid("gsbs state tag")),
        })
    }
}

/// Durable/volatile split for crash snapshots — the [`crate::sbs`]
/// split extended with the round machinery: schedules, per-round
/// safetying artifacts, the certificate store (`decided_certs`,
/// `forwarded`, `safe_r`), the waiting buffer and the whole decision
/// history. Reconstructed as in SbS: key material, verifier,
/// [`ProofCache`] and the delta bookkeeping (fresh bookkeeping degrades
/// to `Full` payloads until peers reply again; the `Resync` fallback
/// covers peers' stale claims about *us*).
impl<V: SignableValue> Wire for GsbsProcess<V> {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.usize(self.me);
        self.input_schedule.encode(w);
        w.var(self.max_rounds);
        self.state.encode(w);
        w.var(self.round);
        w.var(self.ts);
        self.batches.encode(w);
        self.safety_sets.encode(w);
        self.safe_acks.encode(w);
        self.safe_ack_senders.encode(w);
        self.current_safe_req.encode(w);
        self.proposed_set.encode(w);
        self.ack_certs.encode(w);
        self.safe_candidates.encode(w);
        self.accepted_set.encode(w);
        // Resolver contents, most-recently-used first; ids are
        // recomputed on re-registration (see the SbS snapshot notes).
        let retained: Vec<BatchProof<V>> = self
            .resolver
            .entries()
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        retained.encode(w);
        w.var(self.safe_r);
        self.decided_certs.encode(w);
        self.forwarded.encode(w);
        self.waiting.encode(w);
        self.decided_set.encode(w);
        self.decisions.encode(w);
        self.decision_depths.encode(w);
        self.all_inputs.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let config = SystemConfig::decode(r)?;
        let me = r.usize()?;
        let input_schedule = Wire::decode(r)?;
        let max_rounds = r.var()?;
        let state = GsbsState::decode(r)?;
        let round = r.var()?;
        let ts = r.var()?;
        let batches = Wire::decode(r)?;
        let safety_sets = Wire::decode(r)?;
        let safe_acks = Wire::decode(r)?;
        let safe_ack_senders = Wire::decode(r)?;
        let current_safe_req = Wire::decode(r)?;
        let proposed_set = Wire::decode(r)?;
        let ack_certs = Wire::decode(r)?;
        let safe_candidates = Wire::decode(r)?;
        let accepted_set = Wire::decode(r)?;
        let retained: Vec<BatchProof<V>> = Wire::decode(r)?;
        let safe_r = r.var()?;
        let decided_certs = Wire::decode(r)?;
        let forwarded = Wire::decode(r)?;
        let waiting = Wire::decode(r)?;
        let decided_set = Wire::decode(r)?;
        let decisions = Wire::decode(r)?;
        let decision_depths = Wire::decode(r)?;
        let all_inputs = Wire::decode(r)?;
        let mut resolver = ProofResolver::default();
        for proof in retained {
            resolver.register(proof.id(), proof);
        }
        Ok(GsbsProcess {
            config,
            me,
            input_schedule,
            max_rounds,
            keypair: Keypair::for_process(me),
            verifier: CachedVerifier::new(Keyring::for_system(config.n)),
            state,
            round,
            ts,
            batches,
            safety_sets,
            safe_acks,
            safe_ack_senders,
            current_safe_req,
            proposed_set,
            ack_certs,
            safe_candidates,
            accepted_set,
            proof_cache: ProofCache::default(),
            delta_tx: ProvenDeltaSender::new(),
            delta_rx: ProvenDeltaReceiver::new(),
            resolver,
            safe_r,
            decided_certs,
            forwarded,
            waiting,
            decided_set,
            recovered: true,
            decisions,
            decision_depths,
            all_inputs,
        })
    }
}

impl<V: SignableValue> GsbsProcess<V> {
    /// Serializes the durable state as a checksummed
    /// [`GSBS_SNAPSHOT_KIND`] frame.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_frame(GSBS_SNAPSHOT_KIND, self)
    }

    /// Rebuilds a process from [`GsbsProcess::snapshot_bytes`] output.
    /// The next `on_start` performs a recovery boot.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, CodecError> {
        decode_frame(GSBS_SNAPSHOT_KIND, bytes)
    }
}

impl<V: SignableValue> Process<GsbsMsg<V>> for GsbsProcess<V> {
    fn on_start(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        if self.recovered {
            // Recovery boot: re-solicit the replies the crash swept
            // from our inbox. Unlike SbS, collected safe-acks and ack
            // certificates are *kept*: GSbS has no `byz` exclusion set,
            // so duplicate replies from already-counted senders are
            // simply ignored (structural dedup by signer), and Ed25519
            // determinism makes re-signed replies byte-identical.
            //
            // * `Init` — re-broadcast our own signed batch for the
            //   current round (idempotent set insert at peers). Peer
            //   inits lost to the crash cannot be re-requested; the
            //   recovered process may stall here — absorbed within the
            //   ≤ f crash budget (see `crate::recovery`).
            // * `Safetying` — re-broadcast the outstanding `safe_req`
            //   verbatim (`current_safe_req` is durable precisely so
            //   the echo check still matches).
            // * `Proposing` — re-broadcast the proposal at the current
            //   ts; acceptors re-ack idempotently, and a durable
            //   certificate for this round (ours or a peer's) can be
            //   adopted immediately.
            // * `Done` — nothing to re-solicit.
            self.recovered = false;
            match self.state {
                GsbsState::Init => {
                    let mine = self
                        .safety_sets
                        .get(&self.round)
                        .and_then(|set| set.iter().find(|sb| sb.signer == self.me).cloned());
                    if let Some(sb) = mine {
                        ctx.broadcast(GsbsMsg::Init(sb));
                    }
                    self.maybe_start_safetying(ctx);
                }
                GsbsState::Safetying => {
                    ctx.broadcast(GsbsMsg::SafeReq {
                        round: self.round,
                        set: self.current_safe_req.clone(),
                    });
                }
                GsbsState::Proposing => {
                    self.broadcast_proposal(ctx);
                    self.try_adopt_certificate(ctx);
                    self.drain_waiting(ctx);
                }
                GsbsState::Done => {}
            }
            return;
        }
        self.start_round(0, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: GsbsMsg<V>, ctx: &mut Context<GsbsMsg<V>>) {
        match msg {
            GsbsMsg::Init(sb) => {
                if self.verify_signed_batch(&sb) {
                    let round = sb.round;
                    let entry = self.safety_sets.entry(round).or_default();
                    entry.insert(sb);
                    *entry = remove_conflicts(entry);
                    self.maybe_start_safetying(ctx);
                }
            }
            GsbsMsg::SafeReq { round, set } => {
                // Cheap structural check first, then one batched
                // verification for the whole echoed batch set — no
                // serialization work for structurally-invalid junk.
                let all_ok = set.iter().all(|sb| sb.round == round) && {
                    let obligations: Vec<(usize, Vec<u8>, Signature)> =
                        set.iter().map(Self::batch_obligation).collect();
                    self.verifier.verify_all(&obligations)
                };
                if all_ok {
                    let cands = self.safe_candidates.entry(round).or_default();
                    // O(1) when the candidates already contain the
                    // request (redelivered subsets), merge-walk else.
                    let union = cands.join(&set);
                    let conflicts = return_conflicts(&union);
                    *cands = remove_conflicts(&union);
                    let ack = GSafeAck::sign(round, set, conflicts, self.me, &self.keypair);
                    self.verifier.record_own(&Self::safe_ack_obligation(&ack));
                    ctx.send(from, GsbsMsg::SafeAck(ack));
                }
            }
            GsbsMsg::SafeAck(ack) => {
                if self.state != GsbsState::Safetying || ack.round != self.round {
                    return;
                }
                let structural = ack.signer == from
                    && ack.rcvd == self.current_safe_req
                    && !self.safe_ack_senders.contains(&from)
                    && ack.conflicts.iter().all(|(a, b)| a.conflicts_with(b));
                if structural && {
                    // Structural checks passed: batch-verify the ack and
                    // every conflict-pair member in one go.
                    let mut obligations: Vec<(usize, Vec<u8>, Signature)> = ack
                        .conflicts
                        .iter()
                        .flat_map(|(a, b)| [a, b])
                        .map(Self::batch_obligation)
                        .collect();
                    obligations.push(Self::safe_ack_obligation(&ack));
                    self.verifier.verify_all(&obligations)
                } {
                    self.safe_ack_senders.insert(from);
                    self.safe_acks.push(ack);
                    self.maybe_start_proposing(ctx);
                }
            }
            GsbsMsg::Ack(ack) => {
                self.delta_tx.record_reply(from, ack.ts);
                if self.state != GsbsState::Proposing
                    || ack.destination != self.me
                    || ack.ts != self.ts
                    || ack.round != self.round
                {
                    return;
                }
                let digest = digest_values(&Self::values_of(&self.proposed_set));
                if ack.digest != digest || !self.verify_signed_ack(&ack) {
                    return;
                }
                if ack.signer == from && !self.ack_certs.iter().any(|a| a.signer == from) {
                    self.ack_certs.push(ack);
                    if self.ack_certs.len() >= self.config.quorum() {
                        let values = Self::values_of(&self.proposed_set);
                        let cert = DecidedCert {
                            round: self.round,
                            values: values.clone(),
                            acks: self.ack_certs.clone(),
                        };
                        self.absorb_certificate(cert, ctx);
                        self.decide(values, ctx);
                        self.drain_waiting(ctx);
                    }
                }
            }
            GsbsMsg::Decided(cert) => {
                if self.decided_certs.contains_key(&cert.round) {
                    return;
                }
                if cert.well_formed(&self.config, self.verifier.ring()) {
                    self.absorb_certificate(cert, ctx);
                    self.try_adopt_certificate(ctx);
                    self.drain_waiting(ctx);
                }
            }
            GsbsMsg::Resync { ts, round } => {
                // The peer could not resolve a delta: forget every
                // assumption about it and re-send the current proposal
                // in full. Correct peers never send this.
                self.delta_tx.reset_peer(from);
                if self.state == GsbsState::Proposing && ts == self.ts && round == self.round {
                    ctx.send(
                        from,
                        GsbsMsg::AckReq {
                            proposed: ProvenUpdate::Full(self.proposed_set.clone()),
                            ts: self.ts,
                            round: self.round,
                        },
                    );
                }
            }
            other @ (GsbsMsg::AckReq { .. } | GsbsMsg::Nack { .. }) => {
                if self.try_handle(from, &other, ctx) {
                    self.drain_waiting(ctx);
                } else {
                    self.waiting.push((from, other));
                }
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        Some(self.snapshot_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;
    use bgla_simnet::{FifoScheduler, RandomScheduler, Scheduler, Simulation, SimulationBuilder};

    fn gsbs_system(
        n: usize,
        f: usize,
        rounds: u64,
        scheduler: Box<dyn Scheduler>,
    ) -> Simulation<GsbsMsg<u64>> {
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(scheduler);
        for i in 0..n {
            let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for r in 0..rounds.saturating_sub(2) {
                schedule.insert(r, vec![(i as u64) * 1_000 + r]);
            }
            b = b.add(Box::new(GsbsProcess::new(i, config, schedule, rounds)));
        }
        b.build()
    }

    #[test]
    fn honest_rounds_decide_in_order() {
        let (n, rounds) = (4, 3u64);
        let mut sim = gsbs_system(n, 1, rounds, Box::new(FifoScheduler::new()));
        let out = sim.run(10_000_000);
        assert!(out.quiescent);
        let mut seqs = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..n {
            let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
            assert_eq!(p.decisions.len(), rounds as usize, "p{i}");
            seqs.push(p.decisions.clone());
            inputs.push(p.all_inputs.clone());
        }
        spec::check_local_stability(&seqs).unwrap();
        spec::check_global_comparability(&seqs).unwrap();
        spec::check_generalized_inclusivity(&inputs, &seqs).unwrap();
    }

    #[test]
    fn random_schedules_preserve_spec() {
        for seed in 0..5 {
            let (n, rounds) = (4, 3u64);
            let mut sim = gsbs_system(n, 1, rounds, Box::new(RandomScheduler::new(seed)));
            let out = sim.run(10_000_000);
            assert!(out.quiescent, "seed {seed}");
            let mut seqs = Vec::new();
            for i in 0..n {
                let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
                assert_eq!(p.decisions.len(), rounds as usize, "seed {seed} p{i}");
                seqs.push(p.decisions.clone());
            }
            spec::check_local_stability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn snapshot_roundtrip_is_byte_stable() {
        let (n, rounds) = (4, 3u64);
        let mut sim = gsbs_system(n, 1, rounds, Box::new(FifoScheduler::new()));
        let out = sim.run(10_000_000);
        assert!(out.quiescent);
        for i in 0..n {
            let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
            let bytes = p.snapshot_bytes();
            let q = GsbsProcess::<u64>::from_snapshot(&bytes).unwrap();
            assert_eq!(q.decisions, p.decisions, "p{i}");
            assert_eq!(q.state(), p.state(), "p{i}");
            assert_eq!(q.safe_r, p.safe_r, "p{i}");
            assert_eq!(q.snapshot_bytes(), bytes, "p{i}: roundtrip not stable");
        }
    }

    #[test]
    fn certificates_validate_and_reject() {
        let config = SystemConfig::new(4, 1);
        let ring = Keyring::for_system(4);
        let values: ValueSet<u64> = [1, 2].into_iter().collect();
        let digest = digest_values(&values);
        let acks: Vec<SignedAck> = (0..3)
            .map(|i| SignedAck::sign(0, 1, 0, digest, i, &Keypair::for_process(i)))
            .collect();
        let cert = DecidedCert {
            round: 0,
            values: values.clone(),
            acks,
        };
        assert!(cert.well_formed(&config, &ring));
        // Wrong round in acks.
        let bad = DecidedCert {
            round: 1,
            values,
            acks: cert.acks.clone(),
        };
        assert!(!bad.well_formed(&config, &ring));
        // Too few acks.
        let small = DecidedCert {
            round: 0,
            values: cert.values.clone(),
            acks: cert.acks[..2].to_vec(),
        };
        assert!(!small.well_formed(&config, &ring));
        // Tampered values (digest mismatch).
        let mut tampered_values = cert.values.clone();
        tampered_values.insert(99);
        let tampered = DecidedCert {
            round: 0,
            values: tampered_values,
            acks: cert.acks.clone(),
        };
        assert!(!tampered.well_formed(&config, &ring));
    }

    #[test]
    fn per_proposer_messages_linear_in_n() {
        let mut counts = Vec::new();
        for n in [4usize, 7] {
            let mut sim = gsbs_system(n, 1, 3, Box::new(FifoScheduler::new()));
            sim.run(50_000_000);
            counts.push(sim.metrics().max_sent_per_process() as f64);
        }
        let growth = counts[1] / counts[0];
        // n grew 1.75x; quadratic would be ~3x.
        assert!(growth < 2.6, "growth {growth:.2}: {counts:?}");
    }
}
