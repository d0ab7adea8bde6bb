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
//! # The proving phase (this implementation)
//!
//! `AllSafe` and the `ack_req`/`nack` exchange of proven sets are
//! written once, for SbS and GSbS alike, in
//! [`crate::provendelta::ProofPath`]: each distinct proof is verified
//! once per process and answered from a cache thereafter, and proven
//! sets travel delta-encoded, with the proofs a peer holds named by
//! reference (an unresolvable one is answered with [`SbsMsg::Resync`]).
//! This process keeps its phases, messages and `byz` flags, and supplies
//! the validator. Set payloads (`safe_req`, its ack echoes, and the
//! proven proposal/accepted sets) are [`ValueSet`]s.
//!
//! # Echoes said once (this implementation)
//!
//! A `safe_ack` signs the request set it answers (`rcvd`), and the
//! proposer counts only `safe_ack`s signed over its own `Safety_set`. So
//! the echo tells the proposer nothing it does not hold, and neither copy
//! of it travels more than once:
//!
//! * the [`SbsMsg::SafeAck`] reply is a [`SafeAckReply`], the ack without
//!   `rcvd`. The proposer attaches its own `Safety_set` before holding
//!   it. An acceptor that signed some other set has then signed bytes
//!   other than the ones checked: its ack fails at quorum exactly as a
//!   forged signature does, which flags it in `byz` before `Proposing`.
//!   It costs the failed batch and the fallback once; the verifier's
//!   cache answers a redelivery;
//! * a [`SafetyProof`] ships the set its acks echo once, and per ack an
//!   index into the distinct echoes ([`Proof`]'s codec form), instead of
//!   one copy per ack. A Byzantine proof whose acks echo `k` different
//!   sets still decodes, at `k` echoes' cost, and `AllSafe` judges it
//!   exactly as before.
//!
//! None of this changes what is signed, hashed and verified: the echo is
//! inside every safe-ack's signature and every [`bgla_crypto::ProofId`].
//!
//! # What is signed
//!
//! A [`SignedValue`] and a [`SignedSafeAck`] each sign their domain tag
//! followed by their own `Wire` encoding without the trailing signature
//! ([`crate::held::Signed`]); a safe-ack's encoding is its echo, then its
//! conflicts, signer and signature, so both are covered in full. A
//! [`bgla_crypto::ProofId`] hashes each ack's encoding. A field is
//! signed exactly when it travels.
//!
//! # Verify at quorum (this implementation)
//!
//! The proposer acts only on `n − f` signed inits and on a quorum of
//! signed safe-acks, so it checks neither alone as it arrives
//! ([`crate::held`]). An init whose signer is its sender, whose value
//! passes the validator and which is not yet in `Safety_set` is held in
//! `held_inits` while the proposer is in `Init`; a safe-ack, read with
//! `Safety_set` as its echo, that passes the structural half of
//! `VerifyConfPair` (signer, conflict shapes) is held in
//! `held_safe_acks` while it is safetying. Once held
//! plus verified reach the threshold, all held records are checked in one
//! batch ([`bgla_crypto::CachedVerifier::verify_groups`]); valid inits
//! join `Safety_set` in arrival order with conflict removal after each,
//! valid safe-acks are counted. A sender whose safe-ack fails the
//! signature check is put in `byz` then — at quorum, not on arrival, but
//! still before `Proposing`, so none of its acks or nacks has been
//! counted. Held records are in the snapshot next to the set they will
//! join (peers send their inits once); held safe-acks are cleared with
//! the verified ones on a recovery boot.
//!
//! At most [`crate::held::PER_SIGNER`] records per signer are held at
//! each site. A signer that sends a third safe-ack before the quorum is
//! flagged at once, as checking on arrival would have flagged it by its
//! second. A signer whose three or more different inits are all held at
//! once loses all of them, where checking on arrival kept the third
//! (the first two removed each other as a conflict); at most one of them
//! can become safe either way.

use crate::config::SystemConfig;
use crate::held::{self, hold, verify_held, Signed, UNSIGNED};
use crate::proof::{
    echoing, encode_reply_fields, remove_conflicts, replies, return_conflicts, Conflicting, Proof,
    ProofAck,
};
use crate::provendelta::{ProofPath, Proven, ProvenUpdate, Proving, Reply, Valued};
use crate::value::Value;
use crate::valueset::{SetItem, ValueSet};
use bgla_codec::{decode_frame, encode_frame, CodecError, Reader, Wire, Writer};
use bgla_crypto::{CachedVerifier, Keypair, Keyring, Obligation, Signature, VerifierStats};
use bgla_simnet::{Context, Process, ProcessId, WireMessage};
use std::any::Any;
use std::collections::BTreeSet;

/// A value signed by its proposer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SignedValue<V: Value> {
    /// The proposed value.
    pub value: V,
    /// The signing proposer (`v.sender` in the paper).
    pub signer: ProcessId,
    /// Ed25519 signature over the domain-tagged value and signer.
    pub sig: Signature,
}

impl<V: Value> SignedValue<V> {
    /// Signs `value` as process `signer`.
    pub fn sign(value: V, signer: ProcessId, kp: &Keypair) -> Self {
        let mut sv = SignedValue {
            value,
            signer,
            sig: UNSIGNED,
        };
        sv.sig = kp.sign(&sv.signed_bytes());
        sv
    }
}

impl<V: Value> Signed for SignedValue<V> {
    const DOMAIN: &'static [u8] = b"bgla-sbs-value:";
    fn signer(&self) -> ProcessId {
        self.signer
    }
    fn sig(&self) -> &Signature {
        &self.sig
    }
}

impl<V: Value> Conflicting for SignedValue<V> {
    /// Two signed values *conflict* when the same signer signed two
    /// different values.
    fn conflicts_with(&self, other: &Self) -> bool {
        self.signer == other.signer && self.value != other.value
    }
}

impl<V: Value> SetItem for SignedValue<V> {
    const EQ_IS_IDENTITY: bool = true;
}

/// The body of a `safe_ack`: the echoed request set and the conflicts the
/// acceptor knows of.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SafeAckBody<V: Value> {
    /// Echo of the proposer's `Safety_set`.
    pub rcvd: ValueSet<SignedValue<V>>,
    /// Conflicting pairs known to the acceptor.
    pub conflicts: Vec<(SignedValue<V>, SignedValue<V>)>,
}

impl<V: Value> SafeAckBody<V> {
    /// Whether `sv` appears in some conflict pair.
    pub fn conflicted(&self, sv: &SignedValue<V>) -> bool {
        self.conflicts.iter().any(|(a, b)| a == sv || b == sv)
    }
}

/// A signed `safe_ack`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SignedSafeAck<V: Value> {
    /// Ack body.
    pub body: SafeAckBody<V>,
    /// The acceptor that produced it.
    pub signer: ProcessId,
    /// Signature over the body and the signer.
    pub sig: Signature,
}

impl<V: Value> SignedSafeAck<V> {
    /// Signs an ack body as acceptor `signer`.
    pub fn sign(body: SafeAckBody<V>, signer: ProcessId, kp: &Keypair) -> Self {
        let mut ack = SignedSafeAck {
            body,
            signer,
            sig: UNSIGNED,
        };
        ack.sig = kp.sign(&ack.signed_bytes());
        ack
    }
}

impl<V: Value> Signed for SignedSafeAck<V> {
    const DOMAIN: &'static [u8] = b"bgla-sbs-safeack:";
    fn signer(&self) -> ProcessId {
        self.signer
    }
    fn sig(&self) -> &Signature {
        &self.sig
    }
    /// The ack's signature and those of both members of every conflict
    /// pair it reports (`VerifyConfPair`).
    fn obligations(&self) -> Vec<Obligation> {
        let mut out: Vec<Obligation> = self
            .body
            .conflicts
            .iter()
            .flat_map(|(a, b)| [a, b])
            .map(Signed::obligation)
            .collect();
        out.push(self.obligation());
        out
    }
}

impl<V: Value> ProofAck for SignedSafeAck<V> {
    type Echoed = SignedValue<V>;
    type Value = V;
    type Reply = SafeAckReply<V>;
    fn values(sv: &SignedValue<V>) -> &[V] {
        std::slice::from_ref(&sv.value)
    }
    fn covers(&self, sv: &SignedValue<V>) -> bool {
        self.body.rcvd.contains(sv) && !self.body.conflicted(sv)
    }
    fn echo(&self) -> &ValueSet<SignedValue<V>> {
        &self.body.rcvd
    }
    fn reply(&self) -> SafeAckReply<V> {
        SafeAckReply {
            conflicts: self.body.conflicts.clone(),
            signer: self.signer,
            sig: self.sig,
        }
    }
    fn from_reply(reply: SafeAckReply<V>, rcvd: ValueSet<SignedValue<V>>) -> Self {
        SignedSafeAck {
            body: SafeAckBody {
                rcvd,
                conflicts: reply.conflicts,
            },
            signer: reply.signer,
            sig: reply.sig,
        }
    }
    fn encode_reply(&self, w: &mut Writer) {
        encode_reply_fields(w, None, &self.body.conflicts, self.signer, &self.sig);
    }
}

/// A `safe_ack` as it travels back to the proposer: everything but the
/// echo, which is the proposer's own `Safety_set` (see the module docs).
#[derive(Debug, Clone)]
pub struct SafeAckReply<V: Value> {
    /// Conflicting pairs known to the acceptor.
    pub conflicts: Vec<(SignedValue<V>, SignedValue<V>)>,
    /// The acceptor that produced it.
    pub signer: ProcessId,
    /// Signature over the echoed request and the conflicts.
    pub sig: Signature,
}

/// A proof of safety: a quorum of safe-acks none of which conflicts the
/// value. Shared across all values certified by the same safetying
/// exchange, like the paper's `<v, Safe_acks>` pairs, with its
/// [`bgla_crypto::ProofId`] interned at construction.
pub type SafetyProof<V> = Proof<SignedSafeAck<V>>;

/// A value bundled with its proof of safety.
pub type ProvenValue<V> = Proven<SignedSafeAck<V>>;

/// SbS wire messages.
#[derive(Debug, Clone)]
pub enum SbsMsg<V: Value> {
    /// Init phase: signed initial value, proposer → proposers.
    Init(SignedValue<V>),
    /// Safetying phase: proposer → acceptors.
    SafeReq(ValueSet<SignedValue<V>>),
    /// Safetying phase: acceptor → proposer, without the echo of the
    /// request.
    SafeAck(SafeAckReply<V>),
    /// Proposing phase: proposer → acceptors, values carry proofs —
    /// delta-encoded with proof-by-reference after first contact.
    AckReq {
        /// Proven proposal (full, or delta + references).
        proposed: ProvenUpdate<SignedSafeAck<V>>,
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
        accepted: ProvenUpdate<SignedSafeAck<V>>,
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

impl<V: Value> WireMessage for SbsMsg<V> {
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
pub struct SbsProcess<V: Value> {
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
    /// Inits held unverified, in arrival order, until a disclosure
    /// threshold's worth has arrived.
    held_inits: Vec<SignedValue<V>>,
    /// Collected safe-acks for our `safe_req`.
    safe_acks: Vec<SignedSafeAck<V>>,
    safe_ack_senders: BTreeSet<ProcessId>,
    /// Safe-acks held unverified until a quorum's worth has arrived.
    held_safe_acks: Vec<SignedSafeAck<V>>,
    /// `byz[]` flags.
    byz: BTreeSet<ProcessId>,
    /// Proven proposal, with its values.
    proposed_set: Valued<SignedSafeAck<V>>,
    ack_set: BTreeSet<ProcessId>,
    ts: u64,
    /// Acceptor: candidates for safety (conflicts removed).
    safe_candidates: ValueSet<SignedValue<V>>,
    /// The proving phase: the accepted proven set, the retained proofs
    /// and the delta ledgers.
    proofs: ProofPath<SignedSafeAck<V>>,
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

impl<V: Value> SbsProcess<V> {
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
            held_inits: Vec::new(),
            safe_acks: Vec::new(),
            safe_ack_senders: BTreeSet::new(),
            held_safe_acks: Vec::new(),
            byz: BTreeSet::new(),
            proposed_set: Valued::default(),
            ack_set: BTreeSet::new(),
            ts: 0,
            safe_candidates: ValueSet::new(),
            proofs: ProofPath::default(),
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

    /// The proving phase over this process's state, its verifier, quorum
    /// and validator: `AllSafe` ([`Proving::all_safe`]) and the handlers
    /// of the proven exchange.
    pub fn proving(&mut self) -> Proving<'_, SignedSafeAck<V>> {
        Proving {
            path: &mut self.proofs,
            verifier: &mut self.verifier,
            quorum: self.config.quorum(),
            valid: self.validator,
        }
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
        self.proposed_set.values().clone()
    }

    /// `Safety_set` so far (verified and conflict-pruned; held inits are
    /// not in it).
    pub fn safety_set(&self) -> &ValueSet<SignedValue<V>> {
        &self.safety_set
    }

    /// The verified safe-acks collected for this process's `safe_req`.
    pub fn safe_acks(&self) -> &[SignedSafeAck<V>] {
        &self.safe_acks
    }

    /// The processes this one has flagged Byzantine (`byz[]`).
    pub fn byz(&self) -> &BTreeSet<ProcessId> {
        &self.byz
    }

    /// Signs this process's proposal; the verifier learns the verdict, so
    /// the `Init` that comes back in the broadcast is not verified.
    fn sign_proposal(&mut self) -> SignedValue<V> {
        let sv = SignedValue::sign(self.proposal.clone(), self.me, &self.keypair);
        self.verifier.record_own(&sv.obligation());
        sv
    }

    /// Broadcasts the current proposal, delta-encoded per peer (full on
    /// first contact or after a resync; clones are `O(1)` so the
    /// snapshot is cheap).
    fn broadcast_proposal(&mut self, ctx: &mut Context<SbsMsg<V>>) {
        let ts = self.ts;
        let updates = self
            .proofs
            .propose(self.config.n, ts, self.proposed_set.records());
        for (to, proposed) in updates.into_iter().enumerate() {
            ctx.send(to, SbsMsg::AckReq { proposed, ts });
        }
    }

    /// Transitions Init → Safetying when enough signed inits are
    /// verified. Held inits are verified in one batch as soon as, with
    /// the verified ones, they could reach the threshold, and join
    /// `Safety_set` one by one in arrival order, conflict removal after
    /// each insert.
    fn maybe_start_safetying(&mut self, ctx: &mut Context<SbsMsg<V>>) {
        let threshold = self.config.disclosure_threshold();
        if self.state != SbsState::Init || self.safety_set.len() + self.held_inits.len() < threshold
        {
            return;
        }
        for (sv, ok) in verify_held(&mut self.verifier, std::mem::take(&mut self.held_inits)) {
            if ok {
                self.safety_set.insert(sv);
                self.safety_set = remove_conflicts(&self.safety_set);
            }
        }
        if self.safety_set.len() >= threshold {
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
        self.proofs.prove(
            self.safe_acks.clone(),
            &self.safety_set,
            &mut self.proposed_set,
        );
        self.state = SbsState::Proposing;
        self.ack_set.clear();
        self.ts += 1;
        self.broadcast_proposal(ctx);
    }
}

// ---------------------------------------------------------------------------
// Durable state (crash snapshots)
// ---------------------------------------------------------------------------

/// Frame kind tag for SbS process snapshots. `0x010B` since safe-acks are
/// stored without their echo, which is `safety_set` for every one of
/// them, and proofs say their echoes once. The `0x0103` and `0x0109`
/// layouts are retired (see [`crate::recovery`]).
pub const SBS_SNAPSHOT_KIND: u16 = 0x010B;

/// Codec form: value, signer, signature. Decoding does *not* verify the
/// signature — snapshots are checksummed local state, and every network
/// consumption site re-verifies through the [`CachedVerifier`] anyway.
impl<V: Value> Wire for SignedValue<V> {
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

impl<V: Value> Wire for SafeAckReply<V> {
    fn encode(&self, w: &mut Writer) {
        encode_reply_fields(w, None, &self.conflicts, self.signer, &self.sig);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SafeAckReply {
            conflicts: Wire::decode(r)?,
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

/// Codec form: the echo, then the reply ([`SafeAckReply`]'s form).
impl<V: Value> Wire for SignedSafeAck<V> {
    fn encode(&self, w: &mut Writer) {
        self.body.rcvd.encode(w);
        encode_reply_fields(w, None, &self.body.conflicts, self.signer, &self.sig);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SignedSafeAck {
            body: SafeAckBody {
                rcvd: Wire::decode(r)?,
                conflicts: Wire::decode(r)?,
            },
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

impl<V: Value> Wire for SbsMsg<V> {
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
/// collected safe-acks, `byz` flags), the records held unverified next to
/// the set each will join (peers send their inits once, so a restart that
/// dropped held ones could not get them back), the proven proposal, the
/// refinement clock, the proving phase's fragment (the accepted set and
/// the retained proofs, see [`ProofPath`]'s `Wire` impl), and the
/// decision record. Safe-acks, held or counted, are written without their
/// echo, which is `safety_set` for all of them; the values of the
/// proposal are rebuilt from its records.
///
/// Reconstructed: key material and the verifier (the PKI is
/// deterministic per process id), what [`ProofPath`] rebuilds (its
/// delta ledgers), and the `validator` fn pointer (configuration,
/// re-installed by the harness).
impl<V: Value> Wire for SbsProcess<V> {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.usize(self.me);
        self.proposal.encode(w);
        self.state.encode(w);
        self.safety_set.encode(w);
        self.held_inits.encode(w);
        replies(&self.safe_acks).encode(w);
        self.safe_ack_senders.encode(w);
        replies(&self.held_safe_acks).encode(w);
        self.byz.encode(w);
        self.proposed_set.records().encode(w);
        self.ack_set.encode(w);
        w.var(self.ts);
        self.safe_candidates.encode(w);
        self.proofs.encode(w);
        self.decision.encode(w);
        self.decision_depth.encode(w);
        w.var(self.refinements);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let config = SystemConfig::decode(r)?;
        let me = r.usize()?;
        let proposal = V::decode(r)?;
        let state = SbsState::decode(r)?;
        let safety_set: ValueSet<SignedValue<V>> = Wire::decode(r)?;
        let held_inits = Wire::decode(r)?;
        let safe_acks = echoing(&safety_set, Wire::decode(r)?);
        let safe_ack_senders = Wire::decode(r)?;
        let held_safe_acks = echoing(&safety_set, Wire::decode(r)?);
        let byz = Wire::decode(r)?;
        let proposed_set = Valued::new(Wire::decode(r)?);
        let ack_set = Wire::decode(r)?;
        let ts = r.var()?;
        let safe_candidates = Wire::decode(r)?;
        let proofs = Wire::decode(r)?;
        let decision = Wire::decode(r)?;
        let decision_depth = Wire::decode(r)?;
        let refinements = r.var()?;
        Ok(SbsProcess {
            config,
            me,
            proposal,
            keypair: Keypair::for_process(me),
            verifier: CachedVerifier::new(Keyring::for_system(config.n)),
            validator: |_| true,
            state,
            safety_set,
            held_inits,
            safe_acks,
            safe_ack_senders,
            held_safe_acks,
            byz,
            proposed_set,
            ack_set,
            ts,
            safe_candidates,
            proofs,
            recovered: true,
            decision,
            decision_depth,
            refinements,
        })
    }
}

impl<V: Value> SbsProcess<V> {
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

impl<V: Value> Process<SbsMsg<V>> for SbsProcess<V> {
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
            //   re-forms; the fresh delta ledgers send `Full` payloads
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
                    self.held_safe_acks.clear();
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
                // Held unverified (see `crate::held`): the sender's own
                // valid-looking value, not already in.
                if self.state == SbsState::Init
                    && sv.signer == from
                    && (self.validator)(&sv.value)
                    && !self.safety_set.contains(&sv)
                    && !self.held_inits.contains(&sv)
                    && hold(&mut self.held_inits, sv)
                {
                    self.maybe_start_safetying(ctx);
                }
            }
            // ---- Safetying phase (acceptor side) ----
            SbsMsg::SafeReq(set) => {
                // One batched verification for the whole echoed set
                // instead of a scalar-mul pair per signed value.
                let obligations: Vec<Obligation> =
                    set.iter().map(SignedValue::obligation).collect();
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
                    self.verifier.record_own(&ack.obligation());
                    ctx.send(from, SbsMsg::SafeAck(ack.reply()));
                    self.safe_candidates = remove_conflicts(&union);
                }
            }
            // ---- Safetying phase (proposer side) ----
            SbsMsg::SafeAck(reply) => {
                if self.state != SbsState::Safetying {
                    return;
                }
                // `VerifyConfPair`, at quorum: the reply does not echo
                // the request, so the ack is read as signed over our own
                // `Safety_set`. Structural checks on arrival, then every
                // held ack's signatures (both pair members and the ack
                // itself) in one batch once a quorum's worth of senders
                // is in hand. A sender whose ack fails either check —
                // one that signed another set included — is flagged
                // Byzantine before `Proposing`, so none of its acks or
                // nacks has counted.
                let ack = SignedSafeAck::from_reply(reply, self.safety_set.clone());
                let structural = ack.signer == from
                    && !self.safe_ack_senders.contains(&from)
                    && ack.body.conflicts.iter().all(|(a, b)| a.conflicts_with(b));
                if !structural || !hold(&mut self.held_safe_acks, ack) {
                    self.byz.insert(from);
                    return;
                }
                let quorum = self.config.quorum();
                if self.safe_ack_senders.len() + held::signers(&self.held_safe_acks) < quorum {
                    return;
                }
                let held = std::mem::take(&mut self.held_safe_acks);
                for (ack, ok) in verify_held(&mut self.verifier, held) {
                    if ok && self.safe_ack_senders.insert(ack.signer) {
                        self.safe_acks.push(ack);
                    } else {
                        self.byz.insert(ack.signer);
                    }
                }
                self.maybe_start_proposing(ctx);
            }
            // ---- Proposing phase (acceptor side) ----
            SbsMsg::AckReq { proposed, ts } => match self.proving().accept(from, &proposed, ts) {
                Some(Reply::Resync) => ctx.send(from, SbsMsg::Resync { ts }),
                Some(Reply::Ack(values)) => ctx.send(from, SbsMsg::Ack { values, ts }),
                Some(Reply::Nack(accepted)) => ctx.send(from, SbsMsg::Nack { accepted, ts }),
                None => {} // drop: unproven values
            },
            // ---- Proposing phase (proposer side) ----
            SbsMsg::Ack { values, ts } => {
                self.proofs.replied(from, ts);
                if ts != self.ts || self.state != SbsState::Proposing {
                    return;
                }
                if values == *self.proposed_set.values() && !self.byz.contains(&from) {
                    self.ack_set.insert(from);
                    if self.ack_set.len() >= self.config.quorum() {
                        self.state = SbsState::Decided;
                        self.decision = Some(self.proposed_set.values().clone());
                        self.decision_depth = Some(ctx.depth);
                    }
                } else {
                    self.byz.insert(from);
                }
            }
            SbsMsg::Nack { accepted, ts } => {
                self.proofs.replied(from, ts);
                if ts != self.ts || self.state != SbsState::Proposing {
                    return;
                }
                let proposed = self.proposed_set.values().clone();
                let trusted = !self.byz.contains(&from);
                match self.proving().refine(from, &accepted, &proposed, trusted) {
                    Some(accepted) => {
                        self.proposed_set.join_with(&accepted);
                        self.ack_set.clear();
                        self.ts += 1;
                        self.refinements += 1;
                        self.broadcast_proposal(ctx);
                    }
                    None => {
                        self.byz.insert(from);
                    }
                }
            }
            SbsMsg::Resync { ts } => {
                self.proofs.resync(from);
                if self.state == SbsState::Proposing && ts == self.ts {
                    let proposed = ProvenUpdate::Full(self.proposed_set.records().clone());
                    ctx.send(from, SbsMsg::AckReq { proposed, ts });
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
        for f in 1..=4 {
            let n = 3 * f + 1;
            let mut sim = sbs_system(n, f, Box::new(FifoScheduler::new()));
            sim.run(10_000_000);
            for i in 0..n {
                let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
                let depth = p.decision_depth.expect("decided");
                assert!(depth <= 5 + 4 * f as u64, "f={f} p{i}: {depth} > 5+4f");
            }
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
        // WTS's quadratic (`tests/paper_claims.rs` fits both exponents).
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
    fn held_inits_survive_a_restart() {
        // Peers send their inits once: one held below the threshold must
        // be in the snapshot, and count after the restart.
        let mut p = SbsProcess::new(0, SystemConfig::new(4, 1), 10u64);
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        p.on_start(&mut ctx);
        let init = |i: usize| {
            SbsMsg::Init(SignedValue::sign(
                10 + i as u64,
                i,
                &Keypair::for_process(i),
            ))
        };
        p.on_message(1, init(1), &mut ctx);
        assert_eq!(p.held_inits.len(), 1);
        assert_eq!(p.verifier_stats(), VerifierStats::default());
        let mut q = SbsProcess::<u64>::from_snapshot(&p.snapshot_bytes()).unwrap();
        assert_eq!(q.held_inits, p.held_inits);
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        q.on_start(&mut ctx);
        q.on_message(2, init(2), &mut ctx);
        assert_eq!(q.state(), SbsState::Safetying);
        assert_eq!(q.safety_set().len(), 3);
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
            signed: sv.clone(),
            proof: Proof::new(vec![ack.clone()]),
        }]
        .into_iter()
        .collect();
        assert!(!p.proving().all_safe(&set));
        // Duplicate signers don't count.
        let set2: ValueSet<ProvenValue<u64>> = [ProvenValue {
            signed: sv,
            proof: Proof::new(vec![ack.clone(), ack.clone(), ack]),
        }]
        .into_iter()
        .collect();
        assert!(!p.proving().all_safe(&set2));
        // Both shapes are refused before any signature work, on every
        // redelivery.
        assert!(!p.proving().all_safe(&set));
        assert!(!p.proving().all_safe(&set2));
        assert_eq!(p.verifier_stats(), VerifierStats::default());
    }

    /// The validator runs before the proof: a value it rejects fails
    /// `AllSafe` although its proof verifies, and still fails after
    /// another value has verified that proof.
    #[test]
    fn the_validator_refuses_a_proven_value() {
        let config = SystemConfig::new(4, 1);
        let sign = |v: u64, i: usize| SignedValue::sign(v, i, &Keypair::for_process(i));
        let (good, bad) = (sign(7, 1), sign(1_000, 2));
        let rcvd: ValueSet<SignedValue<u64>> = [good.clone(), bad.clone()].into_iter().collect();
        let body = SafeAckBody {
            rcvd,
            conflicts: vec![],
        };
        let proof: SafetyProof<u64> = Proof::new(
            (1..4)
                .map(|i| SignedSafeAck::sign(body.clone(), i, &Keypair::for_process(i)))
                .collect(),
        );
        let set = |sv: &SignedValue<u64>| -> ValueSet<ProvenValue<u64>> {
            [ProvenValue {
                signed: sv.clone(),
                proof: proof.clone(),
            }]
            .into_iter()
            .collect()
        };
        let mut p = SbsProcess::new(0, config, 7u64).with_validator(|v| *v < 1_000);
        assert!(!p.proving().all_safe(&set(&bad)), "cold");
        assert_eq!(p.verifier_stats(), VerifierStats::default());
        assert!(p.proving().all_safe(&set(&good)));
        let verified = p.verifier_stats();
        assert_eq!(verified.batch_verifications, 1);
        assert!(!p.proving().all_safe(&set(&bad)), "proof verified");
        assert_eq!(p.verifier_stats(), verified, "refused with no new work");
        let mut q = SbsProcess::new(0, config, 7u64);
        assert!(
            q.proving().all_safe(&set(&bad)),
            "the proof itself verifies"
        );
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
