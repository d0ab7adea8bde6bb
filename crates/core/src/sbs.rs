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
//! The init and safetying phases are [`crate::safetying`]'s, shared
//! with GSbS, and so is the proving phase — `AllSafe` and the
//! `ack_req`/`nack` exchange of proven sets, in
//! [`crate::provendelta::ProofPath`]: each distinct proof is verified
//! once per process, and proven sets travel delta-encoded, with the
//! proofs a peer holds named by reference (an unresolvable one is
//! answered with [`SbsMsg::Resync`]). This process keeps its phases,
//! messages and `byz` flags, and supplies the validator. Set payloads
//! (`safe_req`, its ack echoes, and the proven proposal/accepted sets)
//! are [`ValueSet`]s.
//!
//! # `byz` flags (this implementation)
//!
//! A sender whose safe-ack fails a structural check, cannot be held, or
//! fails its signatures at quorum ([`crate::safetying`]) is put in `byz`
//! — one that signed another set than our `Safety_set` included. That
//! happens at quorum, not on arrival, but still before
//! `Proposing`, so none of its acks or nacks has been counted. A signer
//! that sends a third safe-ack before the quorum is flagged at once, as
//! checking on arrival would have flagged it by its second. An acker
//! whose ack echoes other values than our proposal, and a nacker whose
//! refusal does not check out, are flagged too.
//!
//! Held inits are in the snapshot next to `Safety_set`. Held and counted
//! safe-acks are in it too, but a recovery boot in `Safetying` clears
//! them and asks again (see `on_start`).

use crate::config::SystemConfig;
use crate::held::{self, Signed, UNSIGNED};
use crate::proof::Proof;
use crate::provendelta::{ProofPath, Proven, ProvenUpdate, Proving, Reply, Valued};
use crate::safetying::{self, SafeAck, SafeAckReply, SafeAcks, Safetied};
use crate::value::Value;
use crate::valueset::{SetItem, ValueSet};
use bgla_codec::{decode_frame, encode_frame, CodecError, Reader, Wire, Writer};
use bgla_crypto::{CachedVerifier, Keypair, Keyring, Signature, VerifierStats};
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

impl<V: Value> Safetied for SignedValue<V> {
    const ACK_DOMAIN: &'static [u8] = b"bgla-sbs-safeack:";
    type Round = ();
    type Value = V;
    fn round(&self) {}
    fn values(&self) -> &[V] {
        std::slice::from_ref(&self.value)
    }
    /// Two signed values *conflict* when the same signer signed two
    /// different values.
    fn conflicts_with(&self, other: &Self) -> bool {
        self.signer == other.signer && self.value != other.value
    }
}

impl<V: Value> SetItem for SignedValue<V> {
    const EQ_IS_IDENTITY: bool = true;
}

/// A proof of safety: a quorum of safe-acks none of which conflicts the
/// value. Shared across all values certified by the same safetying
/// exchange, like the paper's `<v, Safe_acks>` pairs, with its
/// [`bgla_crypto::ProofId`] interned at construction.
pub type SafetyProof<V> = Proof<SafeAck<SignedValue<V>>>;

/// A value bundled with its proof of safety.
pub type ProvenValue<V> = Proven<SafeAck<SignedValue<V>>>;

/// SbS wire messages.
#[derive(Debug, Clone)]
pub enum SbsMsg<V: Value> {
    /// Init phase: signed initial value, proposer → proposers.
    Init(SignedValue<V>),
    /// Safetying phase: proposer → acceptors.
    SafeReq(ValueSet<SignedValue<V>>),
    /// Safetying phase: acceptor → proposer, without the echo of the
    /// request.
    SafeAck(SafeAckReply<SignedValue<V>>),
    /// Proposing phase: proposer → acceptors, values carry proofs —
    /// delta-encoded with proof-by-reference after first contact.
    AckReq {
        /// Proven proposal (full, or delta + references).
        proposed: ProvenUpdate<SafeAck<SignedValue<V>>>,
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
        accepted: ProvenUpdate<SafeAck<SignedValue<V>>>,
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
    keypair: Keypair,
    verifier: CachedVerifier,
    validator: fn(&V) -> bool,

    state: SbsState,
    /// `Safety_set`: collected signed inits (conflicts removed).
    safety_set: ValueSet<SignedValue<V>>,
    /// Inits held unverified, in arrival order, until a disclosure
    /// threshold's worth has arrived.
    held_inits: Vec<SignedValue<V>>,
    /// Safe-acks for our `safe_req`, counted and held.
    safe_acks: SafeAcks<SignedValue<V>>,
    /// `byz[]` flags.
    byz: BTreeSet<ProcessId>,
    /// Proven proposal, with its values.
    proposed_set: Valued<SafeAck<SignedValue<V>>>,
    ack_set: BTreeSet<ProcessId>,
    ts: u64,
    /// Acceptor: candidates for safety (conflicts removed).
    safe_candidates: ValueSet<SignedValue<V>>,
    /// The proving phase: the accepted proven set, the retained proofs
    /// and the delta ledgers.
    proofs: ProofPath<SafeAck<SignedValue<V>>>,
    /// Set by [`SbsProcess::from_snapshot`]: the next `on_start` is a
    /// *recovery* boot (re-announce instead of initialize).
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
            safe_acks: SafeAcks::default(),
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
    pub fn proving(&mut self) -> Proving<'_, SafeAck<SignedValue<V>>> {
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
    pub fn safe_acks(&self) -> &[SafeAck<SignedValue<V>>] {
        self.safe_acks.counted()
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

    /// Transitions Init → Safetying once `n − f` signed inits are
    /// verified ([`safetying::admit`]).
    fn maybe_start_safetying(&mut self, ctx: &mut Context<SbsMsg<V>>) {
        let threshold = self.config.disclosure_threshold();
        if self.state == SbsState::Init
            && safetying::admit(
                &mut self.verifier,
                threshold,
                &mut self.safety_set,
                &mut self.held_inits,
            )
        {
            self.state = SbsState::Safetying;
            ctx.broadcast(SbsMsg::SafeReq(self.safety_set.clone()));
        }
    }

    /// Transitions Safetying → Proposing when a quorum of safe-acks
    /// arrived: assembles proofs for every unconflicted value.
    fn maybe_start_proposing(&mut self, ctx: &mut Context<SbsMsg<V>>) {
        let acks = self.safe_acks.counted();
        if self.state != SbsState::Safetying || acks.len() < self.config.quorum() {
            return;
        }
        self.proofs
            .prove(acks.to_vec(), &self.safety_set, &mut self.proposed_set);
        self.state = SbsState::Proposing;
        self.ack_set.clear();
        self.ts += 1;
        self.broadcast_proposal(ctx);
    }
}

// ---------------------------------------------------------------------------
// Durable state (crash snapshots)
// ---------------------------------------------------------------------------

/// Frame kind tag for SbS process snapshots. `0x010E` since the signers
/// of the counted safe-acks are no longer stored beside them. The
/// `0x0103`, `0x0109` and `0x010B` layouts are retired (see
/// [`crate::recovery`]).
pub const SBS_SNAPSHOT_KIND: u16 = 0x010E;

/// Codec form: value, signer, signature. Decoding does *not* verify the
/// signature — snapshots are checksummed local state, and every network
/// consumption site re-verifies through the [`CachedVerifier`] anyway.
impl<V: Value> Wire for SignedValue<V> {
    fn encode(&self, w: &mut Writer) {
        let Self { value, signer, sig } = self;
        value.encode(w);
        w.usize(*signer);
        sig.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SignedValue {
            value: V::decode(r)?,
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
        let Self {
            config,
            me,
            proposal,
            // Crypto identity is provisioning input; from_snapshot re-supplies it, keys never live
            // in snapshots.
            keypair: _,
            // PKI handle re-supplied at construction and recovery; not serializable state.
            verifier: _,
            // Plain fn pointer; not serializable, re-supplied at construction.
            validator: _,
            state,
            safety_set,
            held_inits,
            safe_acks,
            byz,
            proposed_set,
            ack_set,
            ts,
            safe_candidates,
            proofs,
            // Boot flag: decode sets it true to mark a recovered process.
            recovered: _,
            decision,
            decision_depth,
            refinements,
        } = self;
        config.encode(w);
        w.usize(*me);
        proposal.encode(w);
        state.encode(w);
        safety_set.encode(w);
        held_inits.encode(w);
        safe_acks.write(w);
        byz.encode(w);
        proposed_set.records().encode(w);
        ack_set.encode(w);
        w.var(*ts);
        safe_candidates.encode(w);
        proofs.encode(w);
        decision.encode(w);
        decision_depth.encode(w);
        w.var(*refinements);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let config = SystemConfig::decode(r)?;
        let me = r.usize()?;
        let proposal = V::decode(r)?;
        let state = SbsState::decode(r)?;
        let safety_set: ValueSet<SignedValue<V>> = Wire::decode(r)?;
        let held_inits = Wire::decode(r)?;
        let safe_acks = SafeAcks::read(r, &safety_set)?;
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
                    self.safe_acks = SafeAcks::default();
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
                    && held::hold(&mut self.held_inits, sv)
                {
                    self.maybe_start_safetying(ctx);
                }
            }
            // ---- Safetying phase ----
            SbsMsg::SafeReq(set) => {
                if safetying::verified(&mut self.verifier, (), &set) {
                    let candidates = &mut self.safe_candidates;
                    let signer = (self.me, &self.keypair);
                    let reply = safetying::answer(&mut self.verifier, signer, candidates, (), set);
                    ctx.send(from, SbsMsg::SafeAck(reply));
                }
            }
            SbsMsg::SafeAck(reply) => {
                if self.state != SbsState::Safetying {
                    return;
                }
                let quorum = self.config.quorum();
                let failed = self.safe_acks.collect(
                    &mut self.verifier,
                    quorum,
                    from,
                    reply,
                    &self.safety_set,
                );
                self.byz.extend(failed);
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
        let rcvd = [sv.clone()].into_iter().collect();
        let ack = SafeAck::sign((), rcvd, vec![], 1, &kp1);
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
        let proof: SafetyProof<u64> = Proof::new(
            (1..4)
                .map(|i| SafeAck::sign((), rcvd.clone(), vec![], i, &Keypair::for_process(i)))
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
