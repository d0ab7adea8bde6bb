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
//! Each round's proving phase — `AllSafe` and the `ack_req`/`nack`
//! exchange of proven batches — is SbS's, written once in
//! [`crate::provendelta::ProofPath`]: each distinct proof is verified
//! once per process, and the proof-carrying payloads (`AckReq.proposed`
//! and `Nack.accepted`) travel as delta-encoded, proof-by-reference
//! [`ProvenUpdate`]s, with the [`GsbsMsg::Resync`] fallback. The win
//! compounds here because the proven proposal is *cumulative across
//! rounds*. This process keeps its rounds, messages, certificates and
//! buffering. Batch-set payloads are [`ValueSet`]s (Arc-backed, `O(1)`
//! clone, merge-walk join).
//!
//! # Echoes said once (this implementation)
//!
//! A safe-ack signs the request set it answers (`rcvd`), and a proposer
//! counts only safe-acks signed over its own `current_safe_req`. So the
//! echo tells the proposer nothing it does not hold, and neither copy of
//! it travels more than once:
//!
//! * the [`GsbsMsg::SafeAck`] reply is a [`GSafeAckReply`], the ack
//!   without `rcvd`. The proposer attaches its own `current_safe_req`
//!   before holding it. An acceptor that signed some other set has then
//!   signed bytes other than the ones checked, and its ack fails at
//!   quorum exactly as a forged signature does: it costs the failed
//!   batch and the fallback once, the verifier's cache answers a
//!   redelivery, and it is never counted. Comparing a shipped echo would
//!   catch it without a signature check, but any Byzantine acceptor can
//!   make the proposer pay that check with a forged signature anyway;
//! * a [`BatchProof`] ships the set its acks echo once, and per ack an
//!   index into the distinct echoes ([`Proof`]'s codec form), instead of
//!   one copy per ack;
//! * inside an `AckReq` or `Nack` payload, an echoed batch that the
//!   payload also carries as a record is named by its position among the
//!   records ([`crate::provendelta`]'s wire format). A proposer's own
//!   proof echoes the batches it certifies, so its echo is a few
//!   positions.
//!
//! The same goes for the digest a certificate's acks sign: a
//! [`DecidedCert`] never says it. Every ack of a well-formed certificate
//! signs the digest of its `values`, so the receiver computes it once
//! from them (see the certificate's `Wire` impl). A [`GsbsMsg::Ack`]
//! keeps its digest, which lets the proposer refuse an ack over another
//! proposal before any signature check.
//!
//! None of this changes what is signed, hashed and verified: the echo is
//! inside every safe-ack's signature and every
//! [`bgla_crypto::ProofId`], and the digest inside every ack's signature.
//!
//! # What is signed
//!
//! Each signed record — [`SignedBatch`], [`GSafeAck`], [`SignedAck`] —
//! signs its domain tag followed by its own `Wire` encoding without the
//! trailing signature ([`crate::held::Signed`]). A safe-ack's encoding
//! is its echo followed by its reply, so its signature covers every
//! echoed and conflicting batch in full: round, values, signer and
//! signature. A [`bgla_crypto::ProofId`] hashes each ack's encoding, and
//! an ack's [`Digest`] is [`bgla_crypto::digest`] of the proposal's value
//! set.
//! One encoding thus serves what travels, what is metered, what is
//! signed and what is hashed. The wire forms that leave a part out (a
//! reply without its echo, a certificate's acks without their digest)
//! are rebuilt into the full record before anything is verified, and
//! verification re-encodes that record rather than trusting the
//! received bytes.
//!
//! # Verify at quorum (this implementation)
//!
//! A proposer acts only on a threshold of signed records: `n − f`
//! `Init`s before safetying, a quorum of safe-acks before proposing, a
//! quorum of acks before deciding. None is checked alone as it arrives
//! ([`crate::held`]). Each site runs its structural checks on arrival
//! (sender is signer, round, proposal digest, one record
//! counted per signer) and holds a record that passes them:
//!
//! * `Init`s in `held_inits`, per round — of the current round until
//!   safetying starts, and of later rounds up to `max_rounds`; those of
//!   past rounds are dropped at `start_round`;
//! * safe-acks in `held_safe_acks`, cleared with the verified ones at
//!   `start_round`;
//! * acks in `held_acks`, cleared with `ack_certs` at each `ts` bump.
//!
//! A safe-ack is held with the proposer's own request attached as its
//! echo (see "Echoes said once" above). Once held plus verified reach
//! the threshold, all held records of the
//! site are checked in one batch
//! ([`bgla_crypto::CachedVerifier::verify_groups`]) and the valid ones
//! join in arrival order — `Init`s one at a time with conflict removal
//! after each, as on arrival. A record arriving after its threshold is
//! met is never verified. Held records are durable: the snapshot stores
//! each site's next to the set it will join, because peers send their
//! `Init`s once. `Decided` certificates go through the same verifier
//! ([`DecidedCert::well_formed`]), so a forged one costs one batch and
//! one fallback however often it is redelivered.
//!
//! A site holds at most [`crate::held::PER_SIGNER`] records per signer
//! (per round, for `Init`s), and only `Init`s whose signer is their
//! sender. This differs from checking on arrival in one case: a signer
//! whose three or more different batches for one round are all held at
//! once. On arrival the first two removed each other as a conflict and
//! the third stayed; here the third is not held, so none stays. In both
//! cases at most one of the signer's batches can become safe.

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
use bgla_crypto::{
    digest, CachedVerifier, Digest, Keypair, Keyring, Obligation, Signature, VerifierStats,
};
use bgla_simnet::{Context, Process, ProcessId, WireMessage};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// A proposer-signed round batch.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SignedBatch<V: Value> {
    /// Round the batch belongs to.
    pub round: u64,
    /// The batched input values.
    pub batch: ValueSet<V>,
    /// Signing proposer.
    pub signer: ProcessId,
    /// Signature over (round, batch, signer).
    pub sig: Signature,
}

impl<V: Value> SignedBatch<V> {
    /// Signs a round batch.
    pub fn sign(round: u64, batch: ValueSet<V>, signer: ProcessId, kp: &Keypair) -> Self {
        let mut sb = SignedBatch {
            round,
            batch,
            signer,
            sig: UNSIGNED,
        };
        sb.sig = kp.sign(&sb.signed_bytes());
        sb
    }
}

impl<V: Value> Signed for SignedBatch<V> {
    const DOMAIN: &'static [u8] = b"bgla-gsbs-batch:";
    fn signer(&self) -> ProcessId {
        self.signer
    }
    fn sig(&self) -> &Signature {
        &self.sig
    }
}

impl<V: Value> Conflicting for SignedBatch<V> {
    /// Same signer + round but different batch contents.
    fn conflicts_with(&self, other: &Self) -> bool {
        self.signer == other.signer && self.round == other.round && self.batch != other.batch
    }
}

impl<V: Value> SetItem for SignedBatch<V> {
    const EQ_IS_IDENTITY: bool = true;
}

/// Signed safetying reply for a round.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct GSafeAck<V: Value> {
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

impl<V: Value> GSafeAck<V> {
    /// Builds and signs a safe-ack.
    pub fn sign(
        round: u64,
        rcvd: ValueSet<SignedBatch<V>>,
        conflicts: Vec<(SignedBatch<V>, SignedBatch<V>)>,
        signer: ProcessId,
        kp: &Keypair,
    ) -> Self {
        let mut ack = GSafeAck {
            round,
            rcvd,
            conflicts,
            signer,
            sig: UNSIGNED,
        };
        ack.sig = kp.sign(&ack.signed_bytes());
        ack
    }

    /// Whether `sb` appears in a conflict pair.
    pub fn conflicted(&self, sb: &SignedBatch<V>) -> bool {
        self.conflicts.iter().any(|(a, b)| a == sb || b == sb)
    }
}

impl<V: Value> Signed for GSafeAck<V> {
    const DOMAIN: &'static [u8] = b"bgla-gsbs-safeack:";
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
            .conflicts
            .iter()
            .flat_map(|(a, b)| [a, b])
            .map(Signed::obligation)
            .collect();
        out.push(self.obligation());
        out
    }
}

impl<V: Value> ProofAck for GSafeAck<V> {
    type Echoed = SignedBatch<V>;
    type Value = V;
    type Reply = GSafeAckReply<V>;
    fn values(sb: &SignedBatch<V>) -> &[V] {
        sb.batch.as_slice()
    }
    fn covers(&self, sb: &SignedBatch<V>) -> bool {
        self.round == sb.round && self.rcvd.contains(sb) && !self.conflicted(sb)
    }
    fn echo(&self) -> &ValueSet<SignedBatch<V>> {
        &self.rcvd
    }
    fn reply(&self) -> GSafeAckReply<V> {
        GSafeAckReply {
            round: self.round,
            conflicts: self.conflicts.clone(),
            signer: self.signer,
            sig: self.sig,
        }
    }
    fn from_reply(reply: GSafeAckReply<V>, rcvd: ValueSet<SignedBatch<V>>) -> Self {
        GSafeAck {
            round: reply.round,
            rcvd,
            conflicts: reply.conflicts,
            signer: reply.signer,
            sig: reply.sig,
        }
    }
    fn encode_reply(&self, w: &mut Writer) {
        encode_reply_fields(w, Some(self.round), &self.conflicts, self.signer, &self.sig);
    }
}

/// A safe-ack as it travels back to the proposer: everything but the
/// echo, which is the proposer's own request (see the module docs).
#[derive(Debug, Clone)]
pub struct GSafeAckReply<V: Value> {
    /// Round being safetied.
    pub round: u64,
    /// Conflicts known to the acceptor.
    pub conflicts: Vec<(SignedBatch<V>, SignedBatch<V>)>,
    /// Acceptor id.
    pub signer: ProcessId,
    /// Signature over the round, the echoed request, the conflicts and
    /// the signer.
    pub sig: Signature,
}

/// A quorum of safe-acks certifying one round's safetying exchange,
/// with its [`bgla_crypto::ProofId`] interned at construction.
pub type BatchProof<V> = Proof<GSafeAck<V>>;

/// A batch with its quorum proof of safety.
pub type ProvenBatch<V> = Proven<GSafeAck<V>>;

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
    /// Builds and signs an ack.
    pub fn sign(
        destination: ProcessId,
        ts: u64,
        round: u64,
        digest: Digest,
        signer: ProcessId,
        kp: &Keypair,
    ) -> Self {
        let mut ack = SignedAck {
            destination,
            ts,
            round,
            digest,
            signer,
            sig: UNSIGNED,
        };
        ack.sig = kp.sign(&ack.signed_bytes());
        ack
    }
}

impl Signed for SignedAck {
    const DOMAIN: &'static [u8] = b"bgla-gsbs-ack:";
    fn signer(&self) -> ProcessId {
        self.signer
    }
    fn sig(&self) -> &Signature {
        &self.sig
    }
}

/// A transferable proof that round `round` legitimately ended with the
/// given value set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecidedCert<V: Value> {
    /// The round that ended.
    pub round: u64,
    /// The committed value set.
    pub values: ValueSet<V>,
    /// Quorum of signed acks over `digest(values)`.
    pub acks: Vec<SignedAck>,
}

impl<V: Value> DecidedCert<V> {
    /// Validates the certificate: quorum of valid acks from distinct
    /// acceptors over this round and the values' digest. Structural
    /// checks run first; the quorum's signatures then go through the
    /// process's [`CachedVerifier`] — acks it already knows are answered
    /// from the cache, the rest are checked in one batch, and a forged
    /// certificate's verdicts are cached, so its redelivery costs no new
    /// verification.
    pub fn well_formed(&self, config: &SystemConfig, verifier: &mut CachedVerifier) -> bool {
        if self.acks.len() < config.quorum() {
            return false;
        }
        let digest = digest(&self.values);
        let mut signers = BTreeSet::new();
        let structural = self
            .acks
            .iter()
            .all(|a| a.round == self.round && a.digest == digest && signers.insert(a.signer));
        if !structural {
            return false;
        }
        let obligations: Vec<Obligation> = self.acks.iter().map(Signed::obligation).collect();
        verifier.verify_all(&obligations)
    }
}

/// GSbS wire messages.
#[derive(Debug, Clone)]
pub enum GsbsMsg<V: Value> {
    /// Signed round batch, proposer → proposers.
    Init(SignedBatch<V>),
    /// Safetying request for one round.
    SafeReq {
        /// Round being safetied.
        round: u64,
        /// The proposer's collected signed batches for that round.
        set: ValueSet<SignedBatch<V>>,
    },
    /// Signed safetying reply, without the echo of the request.
    SafeAck(GSafeAckReply<V>),
    /// Proposal with proofs — delta-encoded with proof-by-reference
    /// after first contact.
    AckReq {
        /// Cumulative proven proposal (full, or delta + references).
        proposed: ProvenUpdate<GSafeAck<V>>,
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
        accepted: ProvenUpdate<GSafeAck<V>>,
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

impl<V: Value> WireMessage for GsbsMsg<V> {
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
pub struct GsbsProcess<V: Value> {
    /// System parameters.
    pub config: SystemConfig,
    me: ProcessId,
    /// Per-round input schedule (like GWTS).
    pub input_schedule: BTreeMap<u64, Vec<V>>,
    /// Simulation horizon.
    pub max_rounds: u64,
    keypair: Keypair,
    verifier: CachedVerifier,

    state: GsbsState,
    /// Current round.
    pub round: u64,
    ts: u64,
    /// Pending batches.
    batches: BTreeMap<u64, Vec<V>>,
    /// Collected signed batches per round (conflict-pruned).
    safety_sets: BTreeMap<u64, ValueSet<SignedBatch<V>>>,
    /// `Init`s of this round or later, held unverified in arrival order
    /// until a disclosure threshold's worth has arrived.
    held_inits: BTreeMap<u64, Vec<SignedBatch<V>>>,
    /// Collected safe-acks for our current safe_req.
    safe_acks: Vec<GSafeAck<V>>,
    safe_ack_senders: BTreeSet<ProcessId>,
    /// Safe-acks for the current safe_req, held unverified until a
    /// quorum's worth has arrived.
    held_safe_acks: Vec<GSafeAck<V>>,
    /// The exact set sent in the outstanding safe_req: the echo of every
    /// safe-ack for it (`safety_sets` keeps growing in the meantime).
    current_safe_req: ValueSet<SignedBatch<V>>,
    /// Cumulative proven proposal, with its values.
    proposed_set: Valued<GSafeAck<V>>,
    /// The digest of the proposal's values as of its last broadcast —
    /// what this `ts`'s acks must sign.
    proposal_digest: Digest,
    /// Signed acks gathered for the current (ts, round, digest).
    ack_certs: Vec<SignedAck>,
    /// Acks for the current (ts, round, digest), held unverified until a
    /// quorum's worth has arrived.
    held_acks: Vec<SignedAck>,
    /// Acceptor: safety candidates per round.
    safe_candidates: BTreeMap<u64, ValueSet<SignedBatch<V>>>,
    /// The proving phase: the cumulative accepted proven set, the
    /// retained proofs and the delta ledgers.
    proofs: ProofPath<GSafeAck<V>>,
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
    recovered: bool,

    /// Decision sequence.
    pub decisions: Vec<ValueSet<V>>,
    /// Causal depth per decision.
    pub decision_depths: Vec<u64>,
    /// All inputs this process proposed.
    pub all_inputs: Vec<V>,
}

impl<V: Value> GsbsProcess<V> {
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
            held_inits: BTreeMap::new(),
            safe_acks: Vec::new(),
            safe_ack_senders: BTreeSet::new(),
            held_safe_acks: Vec::new(),
            current_safe_req: ValueSet::new(),
            proposed_set: Valued::default(),
            proposal_digest: digest(&ValueSet::<V>::new()),
            ack_certs: Vec::new(),
            held_acks: Vec::new(),
            safe_candidates: BTreeMap::new(),
            proofs: ProofPath::default(),
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
        self.proposed_set.values().clone()
    }

    /// Cryptographic-work counters of this process's verifier.
    pub fn verifier_stats(&self) -> VerifierStats {
        self.verifier.stats()
    }

    /// The proving phase over this process's state, its verifier and
    /// quorum: `AllSafe` ([`Proving::all_safe`]) and the handlers of the
    /// proven exchange. GSbS has no validator.
    pub fn proving(&mut self) -> Proving<'_, GSafeAck<V>> {
        Proving {
            path: &mut self.proofs,
            verifier: &mut self.verifier,
            quorum: self.config.quorum(),
            valid: |_| true,
        }
    }

    /// The signed batches collected for `round` so far (verified and
    /// conflict-pruned; held `Init`s are not in it).
    pub fn safety_set(&self, round: u64) -> Option<&ValueSet<SignedBatch<V>>> {
        self.safety_sets.get(&round)
    }

    /// The verified safe-acks collected for the outstanding safe_req.
    pub fn safe_acks(&self) -> &[GSafeAck<V>] {
        &self.safe_acks
    }

    /// The verified acks collected for the current proposal.
    pub fn ack_certs(&self) -> &[SignedAck] {
        &self.ack_certs
    }

    fn start_round(&mut self, round: u64, ctx: &mut Context<GsbsMsg<V>>) {
        self.round = round;
        self.state = GsbsState::Init;
        self.safe_acks.clear();
        self.safe_ack_senders.clear();
        self.held_safe_acks.clear();
        self.held_inits = self.held_inits.split_off(&round);
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
        self.verifier.record_own(&sb.obligation());
        self.safety_sets
            .entry(round)
            .or_default()
            .insert(sb.clone());
        ctx.broadcast(GsbsMsg::Init(sb));
        self.maybe_start_safetying(ctx);
    }

    /// Moves to safetying once `n − f` signed batches of this round are
    /// verified. Held `Init`s are verified in one batch as soon as, with
    /// the verified ones, they could reach that threshold, and join the
    /// safety set one by one in arrival order: conflict removal after
    /// each insert, as on arrival, so the outcome of an equivocation
    /// does not depend on how the records were batched.
    fn maybe_start_safetying(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        if self.state != GsbsState::Init {
            return;
        }
        let threshold = self.config.disclosure_threshold();
        let set = self.safety_sets.entry(self.round).or_default();
        let held = self.held_inits.get(&self.round).map_or(0, Vec::len);
        if set.len() + held < threshold {
            return;
        }
        let held = self.held_inits.remove(&self.round).unwrap_or_default();
        for (sb, ok) in verify_held(&mut self.verifier, held) {
            if ok {
                set.insert(sb);
                *set = remove_conflicts(set);
            }
        }
        if set.len() >= threshold {
            let set = set.clone();
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
        self.proofs.prove(
            self.safe_acks.clone(),
            &self.current_safe_req,
            &mut self.proposed_set,
        );
        self.state = GsbsState::Proposing;
        self.ts += 1;
        self.ack_certs.clear();
        self.held_acks.clear();
        self.broadcast_proposal(ctx);
        self.try_adopt_certificate(ctx);
    }

    /// Broadcasts the cumulative proposal, delta-encoded per peer (full
    /// on first contact or after a resync). Every change to
    /// `proposed_set` is followed by this call, so it is also where the
    /// proposal's digest is computed, once per `ts`.
    fn broadcast_proposal(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        self.proposal_digest = digest(self.proposed_set.values());
        let (ts, round) = (self.ts, self.round);
        let updates = self
            .proofs
            .propose(self.config.n, ts, self.proposed_set.records());
        for (to, proposed) in updates.into_iter().enumerate() {
            ctx.send(
                to,
                GsbsMsg::AckReq {
                    proposed,
                    ts,
                    round,
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
                let (ts, round) = (*ts, *round);
                match self.proving().accept(from, proposed, ts) {
                    Some(Reply::Resync) => ctx.send(from, GsbsMsg::Resync { ts, round }),
                    Some(Reply::Ack(values)) => {
                        let digest = digest(&values);
                        let ack = SignedAck::sign(from, ts, round, digest, self.me, &self.keypair);
                        self.verifier.record_own(&ack.obligation());
                        ctx.send(from, GsbsMsg::Ack(ack));
                    }
                    Some(Reply::Nack(accepted)) => ctx.send(
                        from,
                        GsbsMsg::Nack {
                            accepted,
                            ts,
                            round,
                        },
                    ),
                    None => {} // forged proof: drop outright
                }
                true
            }
            GsbsMsg::Nack {
                accepted,
                ts,
                round,
            } => {
                self.proofs.replied(from, *ts);
                if *round < self.round
                    || (*round == self.round && *ts < self.ts)
                    || self.state == GsbsState::Done
                {
                    return true; // stale
                }
                if self.state != GsbsState::Proposing || *round != self.round || *ts != self.ts {
                    return false;
                }
                // An invalid refusal is dropped: GSbS keeps no exclusion
                // set (unlike SbS's `byz`), so a Byzantine nacker's cost
                // is bounded by its own message budget.
                let proposed = self.proposed_set.values().clone();
                if let Some(accepted) = self.proving().refine(from, accepted, &proposed, true) {
                    self.proposed_set.join_with(&accepted);
                    self.ts += 1;
                    self.ack_certs.clear();
                    self.held_acks.clear();
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

/// Frame kind tag for GSbS process snapshots. `0x010C` since safe-acks
/// are stored without their echo, which is `current_safe_req` for every
/// one of them, and proofs say their echoes once; the proposal's values
/// are rebuilt from `proposed_set` instead of stored. The `0x0104` and
/// `0x010A` layouts are retired (see [`crate::recovery`]).
pub const GSBS_SNAPSHOT_KIND: u16 = 0x010C;

/// Codec forms carry signatures verbatim without verifying them —
/// snapshots are checksummed local state, and every network consumption
/// site re-verifies through the [`CachedVerifier`] anyway.
impl<V: Value> Wire for SignedBatch<V> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            round,
            batch,
            signer,
            sig,
        } = self;
        w.var(*round);
        batch.encode(w);
        w.usize(*signer);
        sig.encode(w);
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

impl<V: Value> Wire for GSafeAckReply<V> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            round,
            conflicts,
            signer,
            sig,
        } = self;
        encode_reply_fields(w, Some(*round), conflicts, *signer, sig);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GSafeAckReply {
            round: r.var()?,
            conflicts: Wire::decode(r)?,
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

/// Codec form: the echo, then the reply ([`GSafeAckReply`]'s form).
impl<V: Value> Wire for GSafeAck<V> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            round,
            rcvd,
            conflicts,
            signer,
            sig,
        } = self;
        rcvd.encode(w);
        encode_reply_fields(w, Some(*round), conflicts, *signer, sig);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GSafeAck {
            rcvd: Wire::decode(r)?,
            round: r.var()?,
            conflicts: Wire::decode(r)?,
            signer: r.usize()?,
            sig: Signature::decode(r)?,
        })
    }
}

impl Wire for SignedAck {
    fn encode(&self, w: &mut Writer) {
        let Self {
            destination,
            ts,
            round,
            digest,
            signer,
            sig,
        } = self;
        w.usize(*destination);
        w.var(*ts);
        w.var(*round);
        digest.encode(w);
        w.usize(*signer);
        sig.encode(w);
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

/// Each ack is written without its digest: a well-formed certificate's
/// acks all sign `digest(values)`, so decoding computes it once
/// and gives it to every ack. An ack that signed another digest then
/// fails its signature check where it would have failed the digest
/// comparison, at the cost of one signature batch.
impl<V: Value> Wire for DecidedCert<V> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            round,
            values,
            acks,
        } = self;
        w.var(*round);
        values.encode(w);
        w.usize(acks.len());
        for ack in acks {
            w.usize(ack.destination);
            w.var(ack.ts);
            w.var(ack.round);
            w.usize(ack.signer);
            ack.sig.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let round = r.var()?;
        let values = Wire::decode(r)?;
        let digest = digest(&values);
        let n = r.seq_len()?;
        let mut acks = Vec::with_capacity(n);
        for _ in 0..n {
            acks.push(SignedAck {
                destination: r.usize()?,
                ts: r.var()?,
                round: r.var()?,
                digest,
                signer: r.usize()?,
                sig: Signature::decode(r)?,
            });
        }
        Ok(DecidedCert {
            round,
            values,
            acks,
        })
    }
}

impl<V: Value> Wire for GsbsMsg<V> {
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
/// history. Held records are written next to the set each will join
/// (`held_inits` after `safety_sets`, `held_safe_acks` after the
/// safe-acks, `held_acks` after `ack_certs`): peers send their `Init`s
/// once, so a restart that dropped held ones could not get them back.
/// Safe-acks, held or counted, are written without their echo, which is
/// `current_safe_req` for all of them and is written once before them.
/// The proposal's digest follows `proposed_set`, whose values are
/// rebuilt from its records; the proving phase's fragment follows the
/// safety candidates ([`ProofPath`]'s `Wire` impl). Reconstructed as in
/// SbS: key material, verifier, and what [`ProofPath`] rebuilds.
impl<V: Value> Wire for GsbsProcess<V> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            config,
            me,
            input_schedule,
            max_rounds,
            // Crypto identity is provisioning input; from_snapshot re-supplies it, keys never live
            // in snapshots.
            keypair: _,
            // PKI handle re-supplied at construction and recovery; not serializable state.
            verifier: _,
            state,
            round,
            ts,
            batches,
            safety_sets,
            held_inits,
            safe_acks,
            safe_ack_senders,
            held_safe_acks,
            current_safe_req,
            proposed_set,
            proposal_digest,
            ack_certs,
            held_acks,
            safe_candidates,
            proofs,
            safe_r,
            decided_certs,
            forwarded,
            waiting,
            decided_set,
            // Boot flag: decode sets it true to mark a recovered process.
            recovered: _,
            decisions,
            decision_depths,
            all_inputs,
        } = self;
        config.encode(w);
        w.usize(*me);
        input_schedule.encode(w);
        w.var(*max_rounds);
        state.encode(w);
        w.var(*round);
        w.var(*ts);
        batches.encode(w);
        safety_sets.encode(w);
        held_inits.encode(w);
        current_safe_req.encode(w);
        replies(safe_acks).encode(w);
        safe_ack_senders.encode(w);
        replies(held_safe_acks).encode(w);
        proposed_set.records().encode(w);
        proposal_digest.encode(w);
        ack_certs.encode(w);
        held_acks.encode(w);
        safe_candidates.encode(w);
        proofs.encode(w);
        w.var(*safe_r);
        decided_certs.encode(w);
        forwarded.encode(w);
        waiting.encode(w);
        decided_set.encode(w);
        decisions.encode(w);
        decision_depths.encode(w);
        all_inputs.encode(w);
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
        let held_inits = Wire::decode(r)?;
        let current_safe_req: ValueSet<SignedBatch<V>> = Wire::decode(r)?;
        let safe_acks = echoing(&current_safe_req, Wire::decode(r)?);
        let safe_ack_senders = Wire::decode(r)?;
        let held_safe_acks = echoing(&current_safe_req, Wire::decode(r)?);
        let proposed_set = Valued::new(Wire::decode(r)?);
        let proposal_digest = Wire::decode(r)?;
        let ack_certs = Wire::decode(r)?;
        let held_acks = Wire::decode(r)?;
        let safe_candidates = Wire::decode(r)?;
        let proofs = Wire::decode(r)?;
        let safe_r = r.var()?;
        let decided_certs = Wire::decode(r)?;
        let forwarded = Wire::decode(r)?;
        let waiting = Wire::decode(r)?;
        let decided_set = Wire::decode(r)?;
        let decisions = Wire::decode(r)?;
        let decision_depths = Wire::decode(r)?;
        let all_inputs = Wire::decode(r)?;
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
            held_inits,
            safe_acks,
            safe_ack_senders,
            held_safe_acks,
            current_safe_req,
            proposed_set,
            proposal_digest,
            ack_certs,
            held_acks,
            safe_candidates,
            proofs,
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

impl<V: Value> GsbsProcess<V> {
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

impl<V: Value> Process<GsbsMsg<V>> for GsbsProcess<V> {
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
            //   the replies are read against the set they signed).
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
                // Held unverified (see `crate::held`) if it can still
                // count: the sender's own batch, for this round before
                // safetying or for a later round, and not already in.
                let open = (sb.round > self.round && sb.round < self.max_rounds)
                    || (sb.round == self.round && self.state == GsbsState::Init);
                let known = self
                    .safety_sets
                    .get(&sb.round)
                    .is_some_and(|set| set.contains(&sb));
                if sb.signer != from || !open || known {
                    return;
                }
                let held = self.held_inits.entry(sb.round).or_default();
                if !held.contains(&sb) && hold(held, sb) {
                    self.maybe_start_safetying(ctx);
                }
            }
            GsbsMsg::SafeReq { round, set } => {
                // Cheap structural check first, then one batched
                // verification for the whole echoed batch set — no
                // serialization work for structurally-invalid junk.
                let all_ok = set.iter().all(|sb| sb.round == round) && {
                    let obligations: Vec<Obligation> =
                        set.iter().map(SignedBatch::obligation).collect();
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
                    self.verifier.record_own(&ack.obligation());
                    ctx.send(from, GsbsMsg::SafeAck(ack.reply()));
                }
            }
            GsbsMsg::SafeAck(reply) => {
                if self.state != GsbsState::Safetying || reply.round != self.round {
                    return;
                }
                // The reply does not echo the request: the ack is read as
                // signed over our own. Structural checks on arrival; the
                // ack's signature and those of its conflict pairs wait
                // for a quorum's worth.
                let ack = GSafeAck::from_reply(reply, self.current_safe_req.clone());
                let structural = ack.signer == from
                    && !self.safe_ack_senders.contains(&from)
                    && ack.conflicts.iter().all(|(a, b)| a.conflicts_with(b));
                let quorum = self.config.quorum();
                if !structural
                    || !hold(&mut self.held_safe_acks, ack)
                    || self.safe_ack_senders.len() + held::signers(&self.held_safe_acks) < quorum
                {
                    return;
                }
                let held = std::mem::take(&mut self.held_safe_acks);
                for (ack, ok) in verify_held(&mut self.verifier, held) {
                    if ok && self.safe_ack_senders.insert(ack.signer) {
                        self.safe_acks.push(ack);
                    }
                }
                self.maybe_start_proposing(ctx);
            }
            GsbsMsg::Ack(ack) => {
                self.proofs.replied(from, ack.ts);
                if self.state != GsbsState::Proposing
                    || ack.destination != self.me
                    || ack.ts != self.ts
                    || ack.round != self.round
                    || ack.digest != self.proposal_digest
                    || ack.signer != from
                    || self.ack_certs.iter().any(|a| a.signer == from)
                {
                    return;
                }
                let quorum = self.config.quorum();
                if !hold(&mut self.held_acks, ack)
                    || self.ack_certs.len() + held::signers(&self.held_acks) < quorum
                {
                    return;
                }
                let held = std::mem::take(&mut self.held_acks);
                for (ack, ok) in verify_held(&mut self.verifier, held) {
                    if ok && !self.ack_certs.iter().any(|a| a.signer == ack.signer) {
                        self.ack_certs.push(ack);
                    }
                }
                if self.ack_certs.len() >= quorum {
                    let values = self.proposed_set.values().clone();
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
            GsbsMsg::Decided(cert) => {
                if self.decided_certs.contains_key(&cert.round) {
                    return;
                }
                if cert.well_formed(&self.config, &mut self.verifier) {
                    self.absorb_certificate(cert, ctx);
                    self.try_adopt_certificate(ctx);
                    self.drain_waiting(ctx);
                }
            }
            GsbsMsg::Resync { ts, round } => {
                self.proofs.resync(from);
                if self.state == GsbsState::Proposing && ts == self.ts && round == self.round {
                    let proposed = ProvenUpdate::Full(self.proposed_set.records().clone());
                    ctx.send(
                        from,
                        GsbsMsg::AckReq {
                            proposed,
                            ts,
                            round,
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
    fn held_inits_survive_a_restart() {
        // Peers send their `Init`s once: one held below the threshold
        // must be in the snapshot, and count after the restart.
        let mut p = GsbsProcess::new(0, SystemConfig::new(4, 1), BTreeMap::new(), 1);
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        p.on_start(&mut ctx);
        let init = |i: usize| {
            let batch: ValueSet<u64> = [i as u64].into_iter().collect();
            GsbsMsg::Init(SignedBatch::sign(0, batch, i, &Keypair::for_process(i)))
        };
        p.on_message(1, init(1), &mut ctx);
        assert_eq!(p.held_inits.get(&0).map(Vec::len), Some(1));
        assert_eq!(p.verifier_stats(), VerifierStats::default());
        let mut q = GsbsProcess::<u64>::from_snapshot(&p.snapshot_bytes()).unwrap();
        assert_eq!(q.held_inits, p.held_inits);
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        q.on_start(&mut ctx);
        q.on_message(2, init(2), &mut ctx);
        assert_eq!(q.state(), GsbsState::Safetying);
        assert_eq!(q.safety_set(0).map(ValueSet::len), Some(3));
    }

    #[test]
    fn held_inits_join_one_at_a_time() {
        // n = 7: threshold 5. Three forged inits make the first batch
        // fail down to {own, A}; p1 then also signs B and C, both held
        // at once. Joined one at a time, B cancels A and C stays — as
        // if each had been checked on arrival; joined in bulk, all three
        // would go.
        let mut p = GsbsProcess::new(0, SystemConfig::new(7, 2), BTreeMap::new(), 1);
        let mut ctx = Context::for_embedding(0, 7, 0, 0);
        p.on_start(&mut ctx);
        let signed = |i: usize, v: u64| {
            let batch: ValueSet<u64> = [v].into_iter().collect();
            SignedBatch::sign(0, batch, i, &Keypair::for_process(i))
        };
        p.on_message(1, GsbsMsg::Init(signed(1, 10)), &mut ctx);
        for i in 4..7 {
            let mut forged = signed(i, 40);
            forged.sig.s[0] ^= 1;
            p.on_message(i, GsbsMsg::Init(forged), &mut ctx);
        }
        let joined = |p: &GsbsProcess<u64>| -> Vec<(usize, Option<u64>)> {
            let set = p.safety_set(0).unwrap();
            set.iter()
                .map(|sb| (sb.signer, sb.batch.iter().next().copied()))
                .collect()
        };
        assert_eq!(joined(&p), vec![(0, None), (1, Some(10))]);
        p.on_message(1, GsbsMsg::Init(signed(1, 11)), &mut ctx);
        p.on_message(1, GsbsMsg::Init(signed(1, 12)), &mut ctx);
        assert_eq!(p.held_inits.get(&0).map(Vec::len), Some(2));
        p.on_message(2, GsbsMsg::Init(signed(2, 20)), &mut ctx);
        assert_eq!(joined(&p), vec![(0, None), (1, Some(12)), (2, Some(20))]);
        assert_eq!(p.state(), GsbsState::Init);
    }

    #[test]
    fn certificates_validate_and_reject() {
        let config = SystemConfig::new(4, 1);
        let mut verifier = CachedVerifier::new(Keyring::for_system(4));
        let values: ValueSet<u64> = [1, 2].into_iter().collect();
        let digest = digest(&values);
        let acks: Vec<SignedAck> = (0..3)
            .map(|i| SignedAck::sign(0, 1, 0, digest, i, &Keypair::for_process(i)))
            .collect();
        let cert = DecidedCert {
            round: 0,
            values: values.clone(),
            acks,
        };
        assert!(cert.well_formed(&config, &mut verifier));
        // One batch over the three acks; a second look is a cache hit.
        assert!(cert.well_formed(&config, &mut verifier));
        let stats = verifier.stats();
        assert_eq!(
            (stats.batch_verifications, stats.batched_signatures),
            (1, 3)
        );
        // Wrong round in acks.
        let bad = DecidedCert {
            round: 1,
            values,
            acks: cert.acks.clone(),
        };
        assert!(!bad.well_formed(&config, &mut verifier));
        // Too few acks.
        let small = DecidedCert {
            round: 0,
            values: cert.values.clone(),
            acks: cert.acks[..2].to_vec(),
        };
        assert!(!small.well_formed(&config, &mut verifier));
        // Tampered values (digest mismatch).
        let mut tampered_values = cert.values.clone();
        tampered_values.insert(99);
        let tampered = DecidedCert {
            round: 0,
            values: tampered_values,
            acks: cert.acks.clone(),
        };
        assert!(!tampered.well_formed(&config, &mut verifier));
        // The structural rejections did no cryptographic work.
        assert_eq!(verifier.stats(), stats);
    }

    /// `AllSafe` binds a batch to the round its safe-acks were signed
    /// for: a quorum-valid proof of round-0 acks that echoes a round-1
    /// batch does not prove it, neither cold nor after the same proof's
    /// signatures are verified for a round-0 batch it also echoes.
    #[test]
    fn a_proof_of_another_round_proves_nothing() {
        let sign = |round: u64, v: u64| {
            SignedBatch::sign(
                round,
                [v].into_iter().collect(),
                1,
                &Keypair::for_process(1),
            )
        };
        let (r0, r1) = (sign(0, 10), sign(1, 11));
        let echo: ValueSet<SignedBatch<u64>> = [r0.clone(), r1.clone()].into_iter().collect();
        let proof: BatchProof<u64> = Proof::new(
            (1..4)
                .map(|i| GSafeAck::sign(0, echo.clone(), vec![], i, &Keypair::for_process(i)))
                .collect(),
        );
        let set = |sb: &SignedBatch<u64>| -> ValueSet<ProvenBatch<u64>> {
            [ProvenBatch {
                signed: sb.clone(),
                proof: proof.clone(),
            }]
            .into_iter()
            .collect()
        };
        let mut p = GsbsProcess::new(0, SystemConfig::new(4, 1), BTreeMap::new(), 2);
        assert!(!p.proving().all_safe(&set(&r1)), "cold");
        assert_eq!(p.verifier_stats(), VerifierStats::default());
        assert!(p.proving().all_safe(&set(&r0)));
        let verified = p.verifier_stats();
        assert_eq!(verified.batch_verifications, 1);
        assert!(!p.proving().all_safe(&set(&r1)), "proof verified");
        assert_eq!(p.verifier_stats(), verified, "refused with no new work");
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
