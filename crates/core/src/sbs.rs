//! **Safety by Signature** (SbS) — Algorithms 8, 9 and 10.
//!
//! The signature-based one-shot Lattice Agreement of Section 8. Compared
//! to WTS it removes the Byzantine reliable broadcast — the `O(n²)`
//! messages per process — and replaces it with *proofs of safety*:
//!
//! 1. **Init**: each proposer broadcasts its **signed** initial value and
//!    collects `n − f` of them into `Safety_set` (conflicting pairs —
//!    two different values signed by the same process — are removed).
//! 2. **Safetying**: the proposer sends `Safety_set` to all acceptors.
//!    Each acceptor replies with a **signed** `safe_ack` echoing the set
//!    and listing every conflict it knows about. A value with
//!    `⌊(n+f)/2⌋ + 1` safe-acks, none of which lists it as conflicted,
//!    is *safe*: by quorum intersection at most one value per signer can
//!    ever become safe (Lemma 13 — the signature-based analogue of
//!    reliable broadcast's no-equivocation).
//! 3. **Proposing**: as in WTS, but every value travels with its
//!    attached proof of safety (`<v, Safe_acks>`), and correct processes
//!    refuse to act on values whose proof does not check out
//!    (`AllSafe`). This phase costs `O(n)` messages per proposer per
//!    refinement; with at most `2f` refinements (Lemma 16) the total is
//!    `O(n)` for `f = O(1)` — trading message *count* for message *size*
//!    (proofs are `O(n²)`).
//!
//! Message delays: `5 + 4f` (Theorem 8).
//!
//! # Verify-once proofs (this implementation)
//!
//! Proofs of safety are `O(n²)` bytes and arrive attached to every
//! `ack_req`/`nack`; the same proof is re-shipped on every refinement
//! and Byzantine peers can redeliver it without bound. This
//! implementation therefore verifies each *distinct* proof *once per
//! process*: proofs are [`crate::proof::Proof`] handles whose
//! [`bgla_crypto::ProofId`] is interned at construction, and
//! [`SbsProcess::all_safe`] memoizes full-proof verdicts (positive and
//! negative) in a per-process [`bgla_crypto::ProofCache`]. Only the
//! cheap pair checks — "does this proof cover this value, without a
//! reported conflict" — re-run on redelivery; see
//! [`bgla_crypto::proofstore`] for the caching contract. The cache
//! only skips recomputation of deterministic verdicts, so it cannot
//! change a decision or a trace.
//!
//! Set payloads (`safe_req`, its ack echoes, and the proven
//! proposal/accepted sets) are [`ValueSet`]s — Arc-backed sorted
//! vectors with `O(1)` clone and merge-walk join — so redelivered
//! supersets are recognized structurally instead of re-walked.
//!
//! # Delta-encoded, proof-by-reference proposals (this implementation)
//!
//! Verify-once removes the redundant *computation*; shipping every
//! proof in full on every `ack_req`/`nack` would leave the redundant
//! *bytes*. Proof-carrying payloads therefore travel as
//! [`ProvenUpdate`]s: after an acceptor has acked/nacked a proposal,
//! later `ack_req`s to it carry only the records added since that
//! reply, with proofs the acceptor demonstrably holds named by
//! [`bgla_crypto::ProofId`] reference (~32 bytes instead of `O(n²)`);
//! `nack`s delta against the very proposal they refuse and reference
//! the proposer's own proofs back at it. Receivers reconstruct the full
//! set by joining the delta onto the recorded base and resolving each
//! reference in their per-process [`bgla_crypto::ProofResolver`] — hash
//! lookups, no re-verification (the `ProofCache` verdict already covers
//! a resolved proof). An unresolvable *proposal* reference or base is a
//! **delta gap**: the receiver answers [`SbsMsg::Resync`] and the
//! proposer falls back to `Full` — only Byzantine senders (or resolver
//! eviction on pathological runs) can trigger it. See
//! [`crate::provendelta`] for the reference discipline and the modeled
//! wire format.

use crate::config::SystemConfig;
use crate::proof::{remove_conflicts, return_conflicts, Conflicting, Proof, ProofAck};
use crate::provendelta::{
    register_proofs, ProvenDeltaReceiver, ProvenDeltaSender, ProvenRecord, ProvenUpdate,
};
use crate::value::SignableValue;
use crate::valueset::{SetItem, ValueSet};
use bgla_codec::{decode_frame, encode_frame, var_len, CodecError, Reader, Wire, Writer};
use bgla_crypto::{
    CachedVerifier, Keypair, Keyring, ProofCache, ProofId, ProofResolver, Signature, ToBytes,
    VerifierStats,
};
use bgla_simnet::{Context, Process, ProcessId, ProofSizes, WireMessage};
use std::any::Any;
// bgla-lint: allow(determinism, "HashSet used membership-only in all_safe; iteration order never observed")
use std::collections::{BTreeSet, HashSet};

const VALUE_DOMAIN: &[u8] = b"bgla-sbs-value:";
const ACK_DOMAIN: &[u8] = b"bgla-sbs-safeack:";

/// A value signed by its proposer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SignedValue<V: SignableValue> {
    /// The proposed value.
    pub value: V,
    /// The signing proposer (`v.sender` in the paper).
    pub signer: ProcessId,
    /// Ed25519 signature over the domain-tagged value.
    pub sig: Signature,
}

impl<V: SignableValue> SignedValue<V> {
    fn signable_bytes(value: &V, signer: ProcessId) -> Vec<u8> {
        let mut out = VALUE_DOMAIN.to_vec();
        (signer as u64).write_bytes(&mut out);
        value.write_bytes(&mut out);
        out
    }

    /// Signs `value` as process `signer`.
    pub fn sign(value: V, signer: ProcessId, kp: &Keypair) -> Self {
        let sig = kp.sign(&Self::signable_bytes(&value, signer));
        SignedValue { value, signer, sig }
    }

    /// Verifies the signature against the PKI.
    pub fn verify(&self, ring: &Keyring) -> bool {
        ring.verify(
            self.signer,
            &Self::signable_bytes(&self.value, self.signer),
            &self.sig,
        )
    }
}

impl<V: SignableValue> Conflicting for SignedValue<V> {
    /// Two signed values *conflict* when the same signer signed two
    /// different values.
    fn conflicts_with(&self, other: &Self) -> bool {
        self.signer == other.signer && self.value != other.value
    }
}

impl<V: SignableValue> SetItem for SignedValue<V> {
    const EQ_IS_IDENTITY: bool = true;
    fn wire_size(&self) -> usize {
        self.value.wire_size() + var_len(self.signer as u64) + 64
    }
}

/// The body of a `safe_ack`: the echoed request set and the conflicts the
/// acceptor knows of.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SafeAckBody<V: SignableValue> {
    /// Echo of the proposer's `Safety_set`.
    pub rcvd: ValueSet<SignedValue<V>>,
    /// Conflicting pairs known to the acceptor.
    pub conflicts: Vec<(SignedValue<V>, SignedValue<V>)>,
}

impl<V: SignableValue> SafeAckBody<V> {
    fn signable_bytes(&self, signer: ProcessId) -> Vec<u8> {
        let mut out = ACK_DOMAIN.to_vec();
        (signer as u64).write_bytes(&mut out);
        (self.rcvd.len() as u64).write_bytes(&mut out);
        for sv in &self.rcvd {
            (sv.signer as u64).write_bytes(&mut out);
            sv.value.write_bytes(&mut out);
            out.extend_from_slice(&sv.sig.to_bytes());
        }
        (self.conflicts.len() as u64).write_bytes(&mut out);
        for (a, b) in &self.conflicts {
            for sv in [a, b] {
                (sv.signer as u64).write_bytes(&mut out);
                sv.value.write_bytes(&mut out);
                out.extend_from_slice(&sv.sig.to_bytes());
            }
        }
        out
    }

    /// Whether `sv` appears in some conflict pair.
    pub fn conflicted(&self, sv: &SignedValue<V>) -> bool {
        self.conflicts.iter().any(|(a, b)| a == sv || b == sv)
    }
}

/// A signed `safe_ack`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SignedSafeAck<V: SignableValue> {
    /// Ack body.
    pub body: SafeAckBody<V>,
    /// The acceptor that produced it.
    pub signer: ProcessId,
    /// Signature over the body.
    pub sig: Signature,
}

impl<V: SignableValue> SignedSafeAck<V> {
    /// Signs an ack body as acceptor `signer`.
    pub fn sign(body: SafeAckBody<V>, signer: ProcessId, kp: &Keypair) -> Self {
        let sig = kp.sign(&body.signable_bytes(signer));
        SignedSafeAck { body, signer, sig }
    }

    /// Verifies the acceptor's signature.
    pub fn verify(&self, ring: &Keyring) -> bool {
        ring.verify(
            self.signer,
            &self.body.signable_bytes(self.signer),
            &self.sig,
        )
    }
}

impl<V: SignableValue> ProofAck for SignedSafeAck<V> {
    fn digest_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.body.signable_bytes(self.signer));
        out.extend_from_slice(&self.sig.to_bytes());
    }
    fn wire_size(&self) -> usize {
        let conflicts = &self.body.conflicts;
        self.body.rcvd.wire_size()
            + var_len(conflicts.len() as u64)
            + conflicts
                .iter()
                .map(|(a, b)| SetItem::wire_size(a) + SetItem::wire_size(b))
                .sum::<usize>()
            + var_len(self.signer as u64)
            + 64
    }
}

/// A proof of safety: a quorum of safe-acks none of which conflicts the
/// value. Shared across all values certified by the same safetying
/// exchange, like the paper's `<v, Safe_acks>` pairs, with its
/// [`ProofId`] interned at construction.
pub type SafetyProof<V> = Proof<SignedSafeAck<V>>;

/// A value bundled with its proof of safety.
#[derive(Debug, Clone)]
pub struct ProvenValue<V: SignableValue> {
    /// The signed value.
    pub sv: SignedValue<V>,
    /// Quorum of safe-acks certifying it.
    pub proof: SafetyProof<V>,
}

impl<V: SignableValue> PartialEq for ProvenValue<V> {
    fn eq(&self, other: &Self) -> bool {
        self.sv == other.sv
    }
}
impl<V: SignableValue> Eq for ProvenValue<V> {}
impl<V: SignableValue> PartialOrd for ProvenValue<V> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<V: SignableValue> Ord for ProvenValue<V> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Proof contents don't affect identity: a value is the same
        // lattice element regardless of which quorum certified it.
        self.sv.cmp(&other.sv)
    }
}

impl<V: SignableValue> SetItem for ProvenValue<V> {
    /// `==` ignores the proof: joins must keep our own handles.
    const EQ_IS_IDENTITY: bool = false;
    fn wire_size(&self) -> usize {
        // The value + signature only; the attached proof is accounted
        // separately (shared proofs transmit once per message, or as a
        // reference — see the WireMessage byte-accounting contract).
        SetItem::wire_size(&self.sv)
    }
}

impl<V: SignableValue> ProvenRecord for ProvenValue<V> {
    type Ack = SignedSafeAck<V>;
    fn proof(&self) -> &SafetyProof<V> {
        &self.proof
    }
    fn with_proof(&self, proof: SafetyProof<V>) -> Self {
        ProvenValue {
            sv: self.sv.clone(),
            proof,
        }
    }
}

/// SbS wire messages.
#[derive(Debug, Clone)]
pub enum SbsMsg<V: SignableValue> {
    /// Init phase: signed initial value, proposer → proposers.
    Init(SignedValue<V>),
    /// Safetying phase: proposer → acceptors.
    SafeReq(ValueSet<SignedValue<V>>),
    /// Safetying phase: acceptor → proposer.
    SafeAck(SignedSafeAck<V>),
    /// Proposing phase: proposer → acceptors, values carry proofs —
    /// delta-encoded with proof-by-reference after first contact.
    AckReq {
        /// Proven proposal (full, or delta + references).
        proposed: ProvenUpdate<ProvenValue<V>>,
        /// Refinement timestamp.
        ts: u64,
    },
    /// Acceptor agrees (echoes the value set for the equality check).
    Ack {
        /// Values of the accepted set.
        values: ValueSet<V>,
        /// Echoed timestamp.
        ts: u64,
    },
    /// Acceptor refuses and ships its own proven accepted set,
    /// delta-encoded against the refused proposal.
    Nack {
        /// Acceptor's accepted set with proofs (full, or delta against
        /// the proposal of `ts` + references).
        accepted: ProvenUpdate<ProvenValue<V>>,
        /// Echoed timestamp.
        ts: u64,
    },
    /// Acceptor → proposer: a delta payload did not resolve (unknown
    /// base or proof reference) — re-send `Full`. Never triggered by
    /// correct senders within the retention windows.
    Resync {
        /// Timestamp of the unresolvable `ack_req`.
        ts: u64,
    },
}

impl<V: SignableValue> WireMessage for SbsMsg<V> {
    fn kind(&self) -> &'static str {
        match self {
            SbsMsg::Init(_) => "init",
            SbsMsg::SafeReq(_) => "safe_req",
            SbsMsg::SafeAck(_) => "safe_ack",
            SbsMsg::AckReq { .. } => "ack_req",
            SbsMsg::Ack { .. } => "ack",
            SbsMsg::Nack { .. } => "nack",
            SbsMsg::Resync { .. } => "resync",
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
            SbsMsg::AckReq { proposed: pl, .. } | SbsMsg::Nack { accepted: pl, .. } => {
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
            SbsMsg::AckReq { proposed: pl, ts } | SbsMsg::Nack { accepted: pl, ts } => {
                let (bytes, proofs) = pl.metered();
                (1 + bytes + var_len(*ts), proofs)
            }
            SbsMsg::Init(sv) => plain(SetItem::wire_size(sv)),
            SbsMsg::SafeReq(set) => plain(set.wire_size()),
            SbsMsg::SafeAck(ack) => plain(ProofAck::wire_size(ack)),
            SbsMsg::Ack { values, ts } => plain(values.wire_size() + var_len(*ts)),
            SbsMsg::Resync { ts } => plain(var_len(*ts)),
        }
    }
}

/// Proposer phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SbsState {
    /// Collecting signed initial values.
    Init,
    /// Waiting for safe-acks.
    Safetying,
    /// Proposing / refining.
    Proposing,
    /// Decided (terminal).
    Decided,
}

/// A correct SbS participant (proposer + acceptor).
pub struct SbsProcess<V: SignableValue> {
    /// System parameters.
    pub config: SystemConfig,
    me: ProcessId,
    /// Initial value.
    pub proposal: V,
    // bgla-lint: allow(wire-coverage, "crypto identity is provisioning input; from_snapshot re-supplies it, keys never live in snapshots")
    keypair: Keypair,
    // bgla-lint: allow(wire-coverage, "PKI handle re-supplied at construction and recovery; not serializable state")
    verifier: CachedVerifier,
    // bgla-lint: allow(wire-coverage, "plain fn pointer; not serializable, re-supplied at construction")
    validator: fn(&V) -> bool,

    state: SbsState,
    /// `Safety_set`: collected signed inits (conflicts removed).
    safety_set: ValueSet<SignedValue<V>>,
    /// Collected safe-acks for our `safe_req`.
    safe_acks: Vec<SignedSafeAck<V>>,
    safe_ack_senders: BTreeSet<ProcessId>,
    /// `byz[]` flags.
    byz: BTreeSet<ProcessId>,
    /// Proven proposal.
    proposed_set: ValueSet<ProvenValue<V>>,
    ack_set: BTreeSet<ProcessId>,
    ts: u64,
    /// Acceptor: candidates for safety (conflicts removed).
    safe_candidates: ValueSet<SignedValue<V>>,
    /// Acceptor: accepted proven set.
    accepted_set: ValueSet<ProvenValue<V>>,
    /// Memoized full-proof verdicts, keyed by [`ProofId`].
    // bgla-lint: allow(wire-coverage, "verification cache; rebuilt empty after restart, verdicts are recomputed")
    proof_cache: ProofCache,
    /// Proposer-side delta bookkeeping (snapshots, reply watermarks,
    /// per-peer referenceable proof ids).
    // bgla-lint: allow(wire-coverage, "sender watermarks are peer-relative and deliberately amnesiac across crashes")
    delta_tx: ProvenDeltaSender<ProvenValue<V>>,
    /// Acceptor-side delta bookkeeping (consumed bases, per-proposer
    /// referenceable proof ids).
    // bgla-lint: allow(wire-coverage, "delta bases are peer-relative; a restarted process resumes in full-set mode by design")
    delta_rx: ProvenDeltaReceiver<ProvenValue<V>>,
    /// Verified-and-retained proof handles, resolvable by id when a
    /// peer ships a reference instead of the proof.
    resolver: ProofResolver<SafetyProof<V>>,
    /// Set by [`SbsProcess::from_snapshot`]: the next `on_start` is a
    /// *recovery* boot (re-announce instead of initialize).
    // bgla-lint: allow(wire-coverage, "boot flag: decode sets it true to mark a recovered process")
    recovered: bool,

    /// The decision (value set), once made.
    pub decision: Option<ValueSet<V>>,
    /// Causal depth at decision.
    pub decision_depth: Option<u64>,
    /// Refinement count (Lemma 16: ≤ 2f).
    pub refinements: u64,
}

impl<V: SignableValue> SbsProcess<V> {
    /// Creates a correct participant. Key material comes from the
    /// deterministic per-process PKI.
    pub fn new(me: ProcessId, config: SystemConfig, proposal: V) -> Self {
        SbsProcess {
            config,
            me,
            proposal,
            keypair: Keypair::for_process(me),
            verifier: CachedVerifier::new(Keyring::for_system(config.n)),
            validator: |_| true,
            state: SbsState::Init,
            safety_set: ValueSet::new(),
            safe_acks: Vec::new(),
            safe_ack_senders: BTreeSet::new(),
            byz: BTreeSet::new(),
            proposed_set: ValueSet::new(),
            ack_set: BTreeSet::new(),
            ts: 0,
            safe_candidates: ValueSet::new(),
            accepted_set: ValueSet::new(),
            proof_cache: ProofCache::default(),
            delta_tx: ProvenDeltaSender::new(),
            delta_rx: ProvenDeltaReceiver::new(),
            resolver: ProofResolver::default(),
            recovered: false,
            decision: None,
            decision_depth: None,
            refinements: 0,
        }
    }

    /// Installs a validity predicate.
    pub fn with_validator(mut self, v: fn(&V) -> bool) -> Self {
        self.validator = v;
        self
    }

    /// Cryptographic-work counters of this process's verifier.
    pub fn verifier_stats(&self) -> VerifierStats {
        self.verifier.stats()
    }

    /// `(hits, misses)` of the proof-verdict cache.
    pub fn proof_cache_stats(&self) -> (u64, u64) {
        self.proof_cache.stats()
    }

    /// Process id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Current phase.
    pub fn state(&self) -> SbsState {
        self.state
    }

    /// The values of the current proven proposal — read by the
    /// conformance observers to emit refine-snapshot op events.
    pub fn proposed_values(&self) -> ValueSet<V> {
        self.proposed_set
            .iter()
            .map(|pv| pv.sv.value.clone())
            .collect()
    }

    /// Signs this process's proposal; the verifier learns the verdict, so
    /// the `Init` that comes back in the broadcast is not verified.
    fn sign_proposal(&mut self) -> SignedValue<V> {
        let sv = SignedValue::sign(self.proposal.clone(), self.me, &self.keypair);
        self.verifier.record_own(&(
            self.me,
            SignedValue::signable_bytes(&sv.value, self.me),
            sv.sig,
        ));
        sv
    }

    fn verify_value(&mut self, sv: &SignedValue<V>) -> bool {
        self.verifier.verify(
            sv.signer,
            &SignedValue::signable_bytes(&sv.value, sv.signer),
            &sv.sig,
        )
    }

    /// Algorithm 10's `AllSafe`: every value's proof checks out —
    /// incremental. Per `(value, proof)` pair only the cheap coverage
    /// and conflict comparisons run (pure record equality — no
    /// serialization, no hashing); the expensive value-independent part
    /// of each *distinct* proof (`proof_valid`) is answered
    /// from the per-process [`ProofCache`] when the proof was seen
    /// before — positive *and* negative verdicts, so a redelivered
    /// forged proof costs a hash lookup, not a re-verification. Within
    /// one call, values sharing a proof check it once (by [`ProofId`],
    /// replacing the old `O(k²)` `Arc::as_ptr` scan).
    ///
    /// The attached value's own signature is covered by the proof
    /// verdict: the pair check demands `pv.sv ∈ ack.rcvd` under *full
    /// record equality* (value, signer and signature bytes), and
    /// `proof_valid` verifies every record echoed in every
    /// ack's `rcvd` — so a covered value's signature has been verified,
    /// by content, exactly once.
    ///
    /// Public for the verification-count tests; protocol handlers are
    /// the real callers.
    pub fn all_safe(&mut self, set: &ValueSet<ProvenValue<V>>) -> bool {
        let quorum = self.config.quorum();
        // bgla-lint: allow(determinism, "membership-only dedup set (insert/contains); iteration order never observed")
        let mut checked: HashSet<ProofId> = HashSet::with_capacity(set.len());
        for pv in set.iter() {
            if !(self.validator)(&pv.sv.value) {
                return false;
            }
            // Pair checks — value ↔ proof relations are never cached
            // (see the contract in `bgla_crypto::proofstore`).
            for ack in pv.proof.iter() {
                if !ack.body.rcvd.contains(&pv.sv) {
                    return false; // proof doesn't cover this value
                }
                if ack.body.conflicted(&pv.sv) {
                    return false; // a quorum member reported a conflict
                }
            }
            let id = pv.proof.id();
            if !checked.insert(id) {
                continue; // another value in this set shares the proof
            }
            match self.proof_cache.get(id) {
                Some(true) => continue,
                Some(false) => return false,
                None => {}
            }
            let ok = Self::proof_valid(&mut self.verifier, quorum, &pv.proof);
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
    /// every distinct signed value the acks echo in their `rcvd` sets.
    /// The acks of a quorum echo mostly the same records, and record
    /// equality is identity, so each is encoded (and its cache key
    /// hashed) once per proof, in first-echo order. Verifying the echoes
    /// is what lets [`Self::all_safe`] certify covered values by
    /// membership alone.
    fn proof_valid(verifier: &mut CachedVerifier, quorum: usize, proof: &SafetyProof<V>) -> bool {
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
            obligations.push((ack.signer, ack.body.signable_bytes(ack.signer), ack.sig));
            for sv in ack.body.rcvd.iter().filter(|sv| echoed.insert(*sv)) {
                obligations.push((
                    sv.signer,
                    SignedValue::signable_bytes(&sv.value, sv.signer),
                    sv.sig,
                ));
            }
        }
        verifier.verify_all(&obligations)
    }

    /// Broadcasts the current proposal, delta-encoded per peer (full on
    /// first contact or after a resync; clones are `O(1)` so the
    /// snapshot is cheap).
    fn broadcast_proposal(&mut self, ctx: &mut Context<SbsMsg<V>>) {
        self.delta_tx.record_broadcast(self.ts, &self.proposed_set);
        let updates = self
            .delta_tx
            .encode_broadcast(self.config.n, self.ts, &self.proposed_set);
        for (to, proposed) in updates.into_iter().enumerate() {
            ctx.send(
                to,
                SbsMsg::AckReq {
                    proposed,
                    ts: self.ts,
                },
            );
        }
    }

    fn values_of(set: &ValueSet<ProvenValue<V>>) -> ValueSet<V> {
        set.iter().map(|pv| pv.sv.value.clone()).collect()
    }

    /// Transitions Init → Safetying when enough signed inits arrived.
    fn maybe_start_safetying(&mut self, ctx: &mut Context<SbsMsg<V>>) {
        if self.state == SbsState::Init
            && self.safety_set.len() >= self.config.disclosure_threshold()
        {
            self.state = SbsState::Safetying;
            ctx.broadcast(SbsMsg::SafeReq(self.safety_set.clone()));
        }
    }

    /// Transitions Safetying → Proposing when a quorum of safe-acks
    /// arrived: assembles proofs for every unconflicted value.
    fn maybe_start_proposing(&mut self, ctx: &mut Context<SbsMsg<V>>) {
        if self.state != SbsState::Safetying || self.safe_acks.len() < self.config.quorum() {
            return;
        }
        let proof: SafetyProof<V> = Proof::new(self.safe_acks.clone());
        // Locally assembled and retained: referenceable from now on.
        self.resolver.register(proof.id(), proof.clone());
        let safety_set = self.safety_set.clone();
        for sv in safety_set.iter() {
            let conflicted = proof.iter().any(|ack| ack.body.conflicted(sv));
            if !conflicted {
                self.proposed_set.insert(ProvenValue {
                    sv: sv.clone(),
                    proof: proof.clone(),
                });
            }
        }
        self.state = SbsState::Proposing;
        self.ack_set.clear();
        self.ts += 1;
        self.broadcast_proposal(ctx);
    }
}

// ---------------------------------------------------------------------------
// Durable state (crash snapshots)
// ---------------------------------------------------------------------------

/// Frame kind tag for SbS process snapshots.
pub const SBS_SNAPSHOT_KIND: u16 = 0x0103;

/// Codec form: value, signer, signature. Decoding does *not* verify the
/// signature — snapshots are checksummed local state, and every network
/// consumption site re-verifies through the [`CachedVerifier`] anyway.
impl<V: SignableValue> Wire for SignedValue<V> {
    fn encode(&self, w: &mut Writer) {
        self.value.encode(w);
        w.usize(self.signer);
        self.sig.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SignedValue {
            value: V::decode(r)?,
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

impl<V: SignableValue> Wire for SafeAckBody<V> {
    fn encode(&self, w: &mut Writer) {
        self.rcvd.encode(w);
        self.conflicts.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SafeAckBody {
            rcvd: Wire::decode(r)?,
            conflicts: Wire::decode(r)?,
        })
    }
}

impl<V: SignableValue> Wire for SignedSafeAck<V> {
    fn encode(&self, w: &mut Writer) {
        self.body.encode(w);
        w.usize(self.signer);
        self.sig.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SignedSafeAck {
            body: Wire::decode(r)?,
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

impl<V: SignableValue> Wire for ProvenValue<V> {
    fn encode(&self, w: &mut Writer) {
        self.sv.encode(w);
        self.proof.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ProvenValue {
            sv: Wire::decode(r)?,
            proof: Wire::decode(r)?,
        })
    }
}

impl<V: SignableValue> Wire for SbsMsg<V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            SbsMsg::Init(sv) => {
                w.u8(0);
                sv.encode(w);
            }
            SbsMsg::SafeReq(set) => {
                w.u8(1);
                set.encode(w);
            }
            SbsMsg::SafeAck(ack) => {
                w.u8(2);
                ack.encode(w);
            }
            SbsMsg::AckReq { proposed, ts } => {
                w.u8(3);
                proposed.encode(w);
                w.var(*ts);
            }
            SbsMsg::Ack { values, ts } => {
                w.u8(4);
                values.encode(w);
                w.var(*ts);
            }
            SbsMsg::Nack { accepted, ts } => {
                w.u8(5);
                accepted.encode(w);
                w.var(*ts);
            }
            SbsMsg::Resync { ts } => {
                w.u8(6);
                w.var(*ts);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(SbsMsg::Init(Wire::decode(r)?)),
            1 => Ok(SbsMsg::SafeReq(Wire::decode(r)?)),
            2 => Ok(SbsMsg::SafeAck(Wire::decode(r)?)),
            3 => Ok(SbsMsg::AckReq {
                proposed: Wire::decode(r)?,
                ts: r.var()?,
            }),
            4 => Ok(SbsMsg::Ack {
                values: Wire::decode(r)?,
                ts: r.var()?,
            }),
            5 => Ok(SbsMsg::Nack {
                accepted: Wire::decode(r)?,
                ts: r.var()?,
            }),
            6 => Ok(SbsMsg::Resync { ts: r.var()? }),
            _ => Err(CodecError::Invalid("sbs msg tag")),
        }
    }
}

impl Wire for SbsState {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            SbsState::Init => 0,
            SbsState::Safetying => 1,
            SbsState::Proposing => 2,
            SbsState::Decided => 3,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => SbsState::Init,
            1 => SbsState::Safetying,
            2 => SbsState::Proposing,
            3 => SbsState::Decided,
            _ => return Err(CodecError::Invalid("sbs state tag")),
        })
    }
}

/// Durable/volatile split for crash snapshots.
///
/// Durable: identity, phase, the safetying artifacts (`safety_set`,
/// collected safe-acks, `byz` flags), both proven sets, the refinement
/// clock, the retained [`ProofResolver`] contents (LRU-first, so
/// re-registration reproduces eviction order), and the decision
/// record.
///
/// Reconstructed: key material and the verifier (the PKI is
/// deterministic per process id), the [`ProofCache`] (verdicts are
/// recomputed — a cold cache only costs time), the delta bookkeeping
/// (amnesia invalidates every claim about what peers hold; fresh
/// bookkeeping degrades to `Full` payloads until peers reply again —
/// and the `Resync` fallback covers the peers' stale claims about
/// *us*), and the `validator` fn pointer (configuration, re-installed
/// by the harness).
impl<V: SignableValue> Wire for SbsProcess<V> {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.usize(self.me);
        self.proposal.encode(w);
        self.state.encode(w);
        self.safety_set.encode(w);
        self.safe_acks.encode(w);
        self.safe_ack_senders.encode(w);
        self.byz.encode(w);
        self.proposed_set.encode(w);
        self.ack_set.encode(w);
        w.var(self.ts);
        self.safe_candidates.encode(w);
        self.accepted_set.encode(w);
        // Resolver contents, most-recently-used first. Ids are *not*
        // serialized: re-registration recomputes each proof's content
        // address, so a tampered snapshot cannot alias one proof's id
        // to another's bytes (the checksum already catches accidents).
        let retained: Vec<SafetyProof<V>> = self
            .resolver
            .entries()
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        retained.encode(w);
        self.decision.encode(w);
        self.decision_depth.encode(w);
        w.var(self.refinements);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let config = SystemConfig::decode(r)?;
        let me = r.usize()?;
        let proposal = V::decode(r)?;
        let state = SbsState::decode(r)?;
        let safety_set = Wire::decode(r)?;
        let safe_acks = Wire::decode(r)?;
        let safe_ack_senders = Wire::decode(r)?;
        let byz = Wire::decode(r)?;
        let proposed_set = Wire::decode(r)?;
        let ack_set = Wire::decode(r)?;
        let ts = r.var()?;
        let safe_candidates = Wire::decode(r)?;
        let accepted_set = Wire::decode(r)?;
        let retained: Vec<SafetyProof<V>> = Wire::decode(r)?;
        let decision = Wire::decode(r)?;
        let decision_depth = Wire::decode(r)?;
        let refinements = r.var()?;
        let mut resolver = ProofResolver::default();
        for proof in retained {
            resolver.register(proof.id(), proof);
        }
        Ok(SbsProcess {
            config,
            me,
            proposal,
            keypair: Keypair::for_process(me),
            verifier: CachedVerifier::new(Keyring::for_system(config.n)),
            validator: |_| true,
            state,
            safety_set,
            safe_acks,
            safe_ack_senders,
            byz,
            proposed_set,
            ack_set,
            ts,
            safe_candidates,
            accepted_set,
            proof_cache: ProofCache::default(),
            delta_tx: ProvenDeltaSender::new(),
            delta_rx: ProvenDeltaReceiver::new(),
            resolver,
            recovered: true,
            decision,
            decision_depth,
            refinements,
        })
    }
}

impl<V: SignableValue> SbsProcess<V> {
    /// Serializes the durable state as a checksummed
    /// [`SBS_SNAPSHOT_KIND`] frame.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_frame(SBS_SNAPSHOT_KIND, self)
    }

    /// Rebuilds a process from [`SbsProcess::snapshot_bytes`] output.
    /// The next `on_start` performs a recovery boot.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, CodecError> {
        decode_frame(SBS_SNAPSHOT_KIND, bytes)
    }
}

impl<V: SignableValue> Process<SbsMsg<V>> for SbsProcess<V> {
    fn on_start(&mut self, ctx: &mut Context<SbsMsg<V>>) {
        if self.recovered {
            // Recovery boot: the crash swept our *inbound* traffic, so
            // re-solicit whatever replies were in flight. Phase by
            // phase:
            //
            // * `Init` — re-broadcast our signed init (idempotent at
            //   peers: set insert). Peers broadcast *their* inits only
            //   once, so inits lost to the crash cannot be re-requested
            //   and the recovered process may stall here — absorbed
            //   within the ≤ f crash budget, like GWTS's Disclosing
            //   state (see `crate::recovery`). Survivors are
            //   unaffected: the threshold `n − f` never needs us.
            // * `Safetying` — restart the exchange from zero acks. The
            //   collected acks answered the *pre-crash* `safe_req`;
            //   keeping them would make honest re-replies trip the
            //   duplicate-sender check and poison those peers' `byz`
            //   flags. Ed25519 is deterministic, so re-signed acks are
            //   byte-identical and nothing is lost but one round-trip.
            // * `Proposing` — re-broadcast the proposal at the current
            //   ts with a cleared ack set. Acceptors already holding a
            //   superset simply re-ack (subset check), so the quorum
            //   re-forms; the fresh `delta_tx` sends `Full` payloads
            //   until replies rebuild the watermarks.
            // * `Decided` — nothing to re-solicit; the decision is
            //   durable and write-once.
            self.recovered = false;
            match self.state {
                SbsState::Init => {
                    let sv = self.sign_proposal();
                    ctx.broadcast(SbsMsg::Init(sv));
                    self.maybe_start_safetying(ctx);
                }
                SbsState::Safetying => {
                    self.safe_acks.clear();
                    self.safe_ack_senders.clear();
                    ctx.broadcast(SbsMsg::SafeReq(self.safety_set.clone()));
                }
                SbsState::Proposing => {
                    self.ack_set.clear();
                    self.broadcast_proposal(ctx);
                }
                SbsState::Decided => {}
            }
            return;
        }
        let sv = self.sign_proposal();
        self.safety_set.insert(sv.clone());
        ctx.broadcast(SbsMsg::Init(sv));
        self.maybe_start_safetying(ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: SbsMsg<V>, ctx: &mut Context<SbsMsg<V>>) {
        match msg {
            // ---- Init phase (proposer side) ----
            SbsMsg::Init(sv) => {
                if self.state == SbsState::Init
                    && (self.validator)(&sv.value)
                    && self.verify_value(&sv)
                {
                    self.safety_set.insert(sv);
                    self.safety_set = remove_conflicts(&self.safety_set);
                    self.maybe_start_safetying(ctx);
                }
            }
            // ---- Safetying phase (acceptor side) ----
            SbsMsg::SafeReq(set) => {
                // One batched verification for the whole echoed set
                // instead of a scalar-mul pair per signed value.
                let obligations: Vec<(usize, Vec<u8>, Signature)> = set
                    .iter()
                    .map(|sv| {
                        (
                            sv.signer,
                            SignedValue::signable_bytes(&sv.value, sv.signer),
                            sv.sig,
                        )
                    })
                    .collect();
                if self.verifier.verify_all(&obligations) {
                    // O(1) when the candidates already contain the
                    // request (redelivered subsets), merge-walk else.
                    let union = self.safe_candidates.join(&set);
                    let conflicts = return_conflicts(&union);
                    let body = SafeAckBody {
                        rcvd: set,
                        conflicts,
                    };
                    let ack = SignedSafeAck::sign(body, self.me, &self.keypair);
                    self.verifier
                        .record_own(&(self.me, ack.body.signable_bytes(self.me), ack.sig));
                    ctx.send(from, SbsMsg::SafeAck(ack));
                    self.safe_candidates = remove_conflicts(&union);
                }
            }
            // ---- Safetying phase (proposer side) ----
            SbsMsg::SafeAck(ack) => {
                if self.state != SbsState::Safetying {
                    return;
                }
                // `VerifyConfPair`, batched: all structural checks
                // first, then every signature (both pair members and
                // the ack itself) in one batched verification — no
                // serialization work for structurally-invalid junk.
                let structural = ack.signer == from
                    && ack.body.rcvd == self.safety_set
                    && !self.safe_ack_senders.contains(&from)
                    && ack
                        .body
                        .conflicts
                        .iter()
                        .all(|(a, b)| a.signer == b.signer && a.value != b.value);
                if structural && {
                    let mut obligations: Vec<(usize, Vec<u8>, Signature)> = ack
                        .body
                        .conflicts
                        .iter()
                        .flat_map(|(a, b)| [a, b])
                        .map(|sv| {
                            (
                                sv.signer,
                                SignedValue::signable_bytes(&sv.value, sv.signer),
                                sv.sig,
                            )
                        })
                        .collect();
                    obligations.push((ack.signer, ack.body.signable_bytes(ack.signer), ack.sig));
                    self.verifier.verify_all(&obligations)
                } {
                    self.safe_ack_senders.insert(from);
                    self.safe_acks.push(ack);
                    self.maybe_start_proposing(ctx);
                } else {
                    self.byz.insert(from);
                }
            }
            // ---- Proposing phase (acceptor side) ----
            SbsMsg::AckReq { proposed, ts } => {
                let Some(proposed) = self.delta_rx.resolve(from, &proposed, &mut self.resolver)
                else {
                    // Delta gap: unknown base or proof reference. Ask
                    // for the full payload (the WTS gap fallback, made
                    // two-way because a proposal reference can also
                    // outlive our bounded resolver window).
                    ctx.send(from, SbsMsg::Resync { ts });
                    return;
                };
                if !self.all_safe(&proposed) {
                    return; // drop: unproven values
                }
                // Consumed: the set becomes a delta base, its proofs
                // become referenceable (by us, and back at the sender).
                register_proofs(&mut self.resolver, &proposed);
                self.delta_rx.record(from, ts, &proposed);
                let acc_vals = Self::values_of(&self.accepted_set);
                let prop_vals = Self::values_of(&proposed);
                if acc_vals.is_subset(&prop_vals) {
                    self.accepted_set = proposed;
                    ctx.send(
                        from,
                        SbsMsg::Ack {
                            values: Self::values_of(&self.accepted_set),
                            ts,
                        },
                    );
                } else {
                    // The refusal deltas against the refused proposal
                    // itself — a base the proposer holds by
                    // construction; the proposer reconstructs the
                    // union, which is exactly what its grows-check and
                    // join compute anyway.
                    let accepted =
                        self.delta_rx
                            .encode_reply(from, ts, &proposed, &self.accepted_set);
                    ctx.send(from, SbsMsg::Nack { accepted, ts });
                    self.accepted_set.join_with(&proposed);
                }
            }
            // ---- Proposing phase (proposer side) ----
            SbsMsg::Ack { values, ts } => {
                self.delta_tx.record_reply(from, ts);
                if ts != self.ts || self.state != SbsState::Proposing {
                    return;
                }
                if values == Self::values_of(&self.proposed_set) && !self.byz.contains(&from) {
                    self.ack_set.insert(from);
                    if self.ack_set.len() >= self.config.quorum() {
                        self.state = SbsState::Decided;
                        self.decision = Some(Self::values_of(&self.proposed_set));
                        self.decision_depth = Some(ctx.depth);
                    }
                } else {
                    self.byz.insert(from);
                }
            }
            SbsMsg::Nack { accepted, ts } => {
                self.delta_tx.record_reply(from, ts);
                if ts != self.ts || self.state != SbsState::Proposing {
                    return;
                }
                let Some(accepted) = self.delta_tx.resolve_reply(&accepted, &mut self.resolver)
                else {
                    // A reply gap deltas against our own retained
                    // snapshot and references only proofs we shipped —
                    // a reliable Byzantine signal (see provendelta).
                    self.byz.insert(from);
                    return;
                };
                let acc_vals = Self::values_of(&accepted);
                let prop_vals = Self::values_of(&self.proposed_set);
                let grows = !acc_vals.is_subset(&prop_vals);
                if grows && !self.byz.contains(&from) && self.all_safe(&accepted) {
                    // The nacker shipped (or referenced) every proof in
                    // here — future deltas to it can reference them.
                    register_proofs(&mut self.resolver, &accepted);
                    self.delta_tx.note_peer_holds(from, &accepted);
                    self.proposed_set.join_with(&accepted);
                    self.ack_set.clear();
                    self.ts += 1;
                    self.refinements += 1;
                    self.broadcast_proposal(ctx);
                } else {
                    self.byz.insert(from);
                }
            }
            SbsMsg::Resync { ts } => {
                // The peer could not resolve a delta: forget every
                // assumption about it and re-send the current proposal
                // in full. Correct peers never send this, so the cost
                // is bounded by the adversary's own message budget.
                self.delta_tx.reset_peer(from);
                if self.state == SbsState::Proposing && ts == self.ts {
                    ctx.send(
                        from,
                        SbsMsg::AckReq {
                            proposed: ProvenUpdate::Full(self.proposed_set.clone()),
                            ts: self.ts,
                        },
                    );
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

    fn sbs_system(n: usize, f: usize, scheduler: Box<dyn Scheduler>) -> Simulation<SbsMsg<u64>> {
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(scheduler);
        for i in 0..n {
            b = b.add(Box::new(SbsProcess::new(i, config, 100 + i as u64)));
        }
        b.build()
    }

    fn check_run(sim: &Simulation<SbsMsg<u64>>, n: usize, f: usize, label: &str) {
        let mut decisions = Vec::new();
        let mut pairs = Vec::new();
        for i in 0..n {
            let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
            let d = p
                .decision
                .clone()
                .unwrap_or_else(|| panic!("{label}: p{i} never decided"));
            pairs.push((p.proposal, d.clone()));
            decisions.push(d);
            assert!(
                p.refinements <= 2 * f as u64,
                "{label}: p{i} exceeded 2f refinements"
            );
        }
        spec::check_comparability(&decisions).unwrap_or_else(|e| panic!("{label}: {e}"));
        spec::check_inclusivity(&pairs).unwrap_or_else(|e| panic!("{label}: {e}"));
    }

    #[test]
    fn honest_run_decides_and_agrees() {
        let (n, f) = (4, 1);
        let mut sim = sbs_system(n, f, Box::new(FifoScheduler::new()));
        let out = sim.run(1_000_000);
        assert!(out.quiescent);
        check_run(&sim, n, f, "fifo");
    }

    #[test]
    fn decision_depth_within_theorem_8_bound() {
        let (n, f) = (4, 1);
        let mut sim = sbs_system(n, f, Box::new(FifoScheduler::new()));
        sim.run(1_000_000);
        for i in 0..n {
            let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
            let depth = p.decision_depth.expect("decided");
            assert!(depth <= 5 + 4 * f as u64, "p{i}: {depth} > 5+4f");
        }
    }

    #[test]
    fn random_schedules_agree() {
        for seed in 0..8 {
            let (n, f) = (4, 1);
            let mut sim = sbs_system(n, f, Box::new(RandomScheduler::new(seed)));
            let out = sim.run(1_000_000);
            assert!(out.quiescent, "seed {seed}");
            check_run(&sim, n, f, &format!("seed {seed}"));
        }
    }

    #[test]
    fn linear_messages_per_proposer() {
        // Section 8.1: O(n) messages per proposer (for f = O(1)).
        // Check the shape: per-process sends grow ~linearly in n, unlike
        // WTS's quadratic (E7 regenerates the full comparison).
        let mut per_process = Vec::new();
        for n in [4usize, 7, 10] {
            let mut sim = sbs_system(n, 1, Box::new(FifoScheduler::new()));
            sim.run(10_000_000);
            per_process.push(sim.metrics().max_sent_per_process() as f64);
        }
        // From n=4 to n=10 the per-process count should grow by ~2.5x
        // (linear), far less than the ~6.25x a quadratic algorithm shows.
        let growth = per_process[2] / per_process[0];
        assert!(
            growth < 4.5,
            "per-proposer message growth {growth:.2} looks superlinear: {per_process:?}"
        );
    }

    #[test]
    fn snapshot_roundtrip_is_byte_stable() {
        let (n, f) = (4, 1);
        let mut sim = sbs_system(n, f, Box::new(FifoScheduler::new()));
        let out = sim.run(1_000_000);
        assert!(out.quiescent);
        for i in 0..n {
            let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
            let bytes = p.snapshot_bytes();
            let q = SbsProcess::<u64>::from_snapshot(&bytes).unwrap();
            assert_eq!(q.decision, p.decision, "p{i}");
            assert_eq!(q.state(), p.state(), "p{i}");
            assert_eq!(q.refinements, p.refinements, "p{i}");
            // Re-encoding must reproduce the bytes exactly — this pins
            // the resolver's recency ordering (entries are serialized
            // LRU-first so re-registration reproduces eviction order).
            assert_eq!(q.snapshot_bytes(), bytes, "p{i}: roundtrip not stable");
        }
    }

    #[test]
    fn forged_proofs_are_rejected() {
        // A proof assembled from acks of the wrong shape must fail
        // AllSafe: quorum too small, duplicate signers, missing value.
        let config = SystemConfig::new(4, 1);
        let mut p = SbsProcess::new(0, config, 7u64);
        let kp1 = Keypair::for_process(1);
        let sv = SignedValue::sign(42u64, 1, &kp1);
        let body = SafeAckBody {
            rcvd: [sv.clone()].into_iter().collect(),
            conflicts: vec![],
        };
        let ack = SignedSafeAck::sign(body, 1, &kp1);
        // Quorum is 3; a single ack (even valid) is insufficient.
        let set: ValueSet<ProvenValue<u64>> = [ProvenValue {
            sv: sv.clone(),
            proof: Proof::new(vec![ack.clone()]),
        }]
        .into_iter()
        .collect();
        assert!(!p.all_safe(&set));
        // Duplicate signers don't count.
        let set2: ValueSet<ProvenValue<u64>> = [ProvenValue {
            sv,
            proof: Proof::new(vec![ack.clone(), ack.clone(), ack]),
        }]
        .into_iter()
        .collect();
        assert!(!p.all_safe(&set2));
        // Both verdicts were interned: redelivery answers from cache.
        let (hits0, _) = p.proof_cache_stats();
        assert!(!p.all_safe(&set));
        assert!(!p.all_safe(&set2));
        let (hits1, _) = p.proof_cache_stats();
        assert_eq!(hits1 - hits0, 2);
    }

    #[test]
    fn conflicting_signed_values_never_both_decided() {
        // Byzantine process 3 signs two different values and sends one to
        // each half: Lemma 13 says at most one can become safe.
        struct ConflictSigner;
        impl Process<SbsMsg<u64>> for ConflictSigner {
            fn on_start(&mut self, ctx: &mut Context<SbsMsg<u64>>) {
                let kp = Keypair::for_process(3);
                let a = SignedValue::sign(666u64, 3, &kp);
                let b = SignedValue::sign(777u64, 3, &kp);
                for to in 0..ctx.n {
                    let sv = if to < ctx.n / 2 { a.clone() } else { b.clone() };
                    ctx.send(to, SbsMsg::Init(sv));
                }
            }
            fn on_message(
                &mut self,
                _f: ProcessId,
                _m: SbsMsg<u64>,
                _c: &mut Context<SbsMsg<u64>>,
            ) {
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }

        for seed in 0..8 {
            let config = SystemConfig::new(4, 1);
            let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
            for i in 0..3 {
                b = b.add(Box::new(SbsProcess::new(i, config, i as u64)));
            }
            b = b.add(Box::new(ConflictSigner));
            let mut sim = b.build();
            let out = sim.run(1_000_000);
            assert!(out.quiescent, "seed {seed}");
            let mut decisions = Vec::new();
            for i in 0..3 {
                let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
                if let Some(d) = &p.decision {
                    assert!(
                        !(d.contains(&666) && d.contains(&777)),
                        "seed {seed}: both conflicting values decided"
                    );
                    decisions.push(d.clone());
                }
            }
            spec::check_comparability(&decisions).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
