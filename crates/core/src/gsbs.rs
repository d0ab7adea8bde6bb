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
//! Per-round value safety is SbS's init and safetying phases
//! ([`crate::safetying`]) applied to *round batches*: each proposer signs
//! its `(round, batch)`; a batch is safe with a quorum of signed
//! safe-acks of its round none of which reports a conflict (two
//! different batches signed by the same proposer for the same round).
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
//! # Rounds (this implementation)
//!
//! `Init`s are held per round: of the current round until safetying
//! starts, and of later rounds up to `max_rounds`; those of past rounds
//! are dropped at `start_round`, which also clears the safe-acks. A
//! safe-ack is read with `current_safe_req`, the exact set of the
//! outstanding request, as its echo: `safety_sets` keeps growing in the
//! meantime. A failed safe-ack is not counted and nothing else happens:
//! GSbS keeps no `byz` set, so a Byzantine sender's cost is bounded by
//! its own message budget.
//!
//! # Signed acks and certificates (this implementation)
//!
//! A [`SignedAck`] signs its domain tag and its own encoding without the
//! signature ([`crate::held::Signed`]), the [`Digest`] of the proposal's
//! value set ([`bgla_crypto::digest`]) among it. A proposer checks an
//! ack's sender, `ts`, round and digest on arrival, holds it in
//! `held_acks` (cleared with `ack_certs` at each `ts` bump), and verifies
//! the held acks in one batch once a quorum's worth has arrived, as for
//! safe-acks. [`DecidedCert`]s go through the same verifier
//! ([`DecidedCert::well_formed`]), so a forged one costs one batch and
//! one fallback however often it is redelivered.
//!
//! A certificate never says the digest its acks sign: every ack of a
//! well-formed certificate signs the digest of its `values`, so the
//! receiver computes it once from them (see the certificate's `Wire`
//! impl). A [`GsbsMsg::Ack`] keeps its digest, which lets the proposer
//! refuse an ack over another proposal before any signature check.

use crate::config::SystemConfig;
use crate::held::{self, hold, verify_held, Signed, UNSIGNED};
use crate::proof::Proof;
use crate::provendelta::{ProofPath, Proven, ProvenUpdate, Proving, Reply, Valued};
use crate::safetying::{self, SafeAck, SafeAckReply, SafeAcks, Safetied};
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

impl<V: Value> Safetied for SignedBatch<V> {
    const ACK_DOMAIN: &'static [u8] = b"bgla-gsbs-safeack:";
    type Round = u64;
    type Value = V;
    fn round(&self) -> u64 {
        self.round
    }
    fn values(&self) -> &[V] {
        self.batch.as_slice()
    }
    /// Same signer + round but different batch contents.
    fn conflicts_with(&self, other: &Self) -> bool {
        self.signer == other.signer && self.round == other.round && self.batch != other.batch
    }
}

impl<V: Value> SetItem for SignedBatch<V> {
    const EQ_IS_IDENTITY: bool = true;
}

/// A quorum of safe-acks certifying one round's safetying exchange,
/// with its [`bgla_crypto::ProofId`] interned at construction.
pub type BatchProof<V> = Proof<SafeAck<SignedBatch<V>>>;

/// A batch with its quorum proof of safety.
pub type ProvenBatch<V> = Proven<SafeAck<SignedBatch<V>>>;

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
    SafeAck(SafeAckReply<SignedBatch<V>>),
    /// Proposal with proofs — delta-encoded with proof-by-reference
    /// after first contact.
    AckReq {
        /// Cumulative proven proposal (full, or delta + references).
        proposed: ProvenUpdate<SafeAck<SignedBatch<V>>>,
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
        accepted: ProvenUpdate<SafeAck<SignedBatch<V>>>,
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
    /// Safe-acks for the current safe_req, counted and held.
    safe_acks: SafeAcks<SignedBatch<V>>,
    /// The exact set sent in the outstanding safe_req: the echo of every
    /// safe-ack for it (`safety_sets` keeps growing in the meantime).
    current_safe_req: ValueSet<SignedBatch<V>>,
    /// Cumulative proven proposal, with its values.
    proposed_set: Valued<SafeAck<SignedBatch<V>>>,
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
    proofs: ProofPath<SafeAck<SignedBatch<V>>>,
    /// Acceptor: highest trusted round.
    pub safe_r: u64,
    /// Valid decided certificates seen, by round.
    decided_certs: BTreeMap<u64, DecidedCert<V>>,
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
            safe_acks: SafeAcks::default(),
            current_safe_req: ValueSet::new(),
            proposed_set: Valued::default(),
            proposal_digest: digest(&ValueSet::<V>::new()),
            ack_certs: Vec::new(),
            held_acks: Vec::new(),
            safe_candidates: BTreeMap::new(),
            proofs: ProofPath::default(),
            safe_r: 0,
            decided_certs: BTreeMap::new(),
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
    pub fn proving(&mut self) -> Proving<'_, SafeAck<SignedBatch<V>>> {
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
    pub fn safe_acks(&self) -> &[SafeAck<SignedBatch<V>>] {
        self.safe_acks.counted()
    }

    /// The verified acks collected for the current proposal.
    pub fn ack_certs(&self) -> &[SignedAck] {
        &self.ack_certs
    }

    fn start_round(&mut self, round: u64, ctx: &mut Context<GsbsMsg<V>>) {
        self.round = round;
        self.state = GsbsState::Init;
        self.safe_acks = SafeAcks::default();
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
    /// verified ([`safetying::admit`]).
    fn maybe_start_safetying(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        if self.state != GsbsState::Init {
            return;
        }
        let (threshold, round) = (self.config.disclosure_threshold(), self.round);
        let set = self.safety_sets.entry(round).or_default();
        let held = self.held_inits.entry(round).or_default();
        let reached = safetying::admit(&mut self.verifier, threshold, set, held);
        // An entry stays only while it holds something: the snapshot
        // writes the map.
        if held.is_empty() {
            self.held_inits.remove(&round);
        }
        if reached {
            let set = set.clone();
            self.state = GsbsState::Safetying;
            self.current_safe_req = set.clone();
            ctx.broadcast(GsbsMsg::SafeReq { round, set });
        }
    }

    fn maybe_start_proposing(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        let acks = self.safe_acks.counted();
        if self.state != GsbsState::Safetying || acks.len() < self.config.quorum() {
            return;
        }
        self.proofs.prove(
            acks.to_vec(),
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

    /// Registers a certificate (assumed well-formed) and updates trust.
    /// The first certificate of a round is forwarded, once: every round
    /// `decided_certs` holds is one whose certificate went out.
    fn absorb_certificate(&mut self, cert: DecidedCert<V>, ctx: &mut Context<GsbsMsg<V>>) {
        if let std::collections::btree_map::Entry::Vacant(e) = self.decided_certs.entry(cert.round)
        {
            e.insert(cert.clone());
            ctx.broadcast(GsbsMsg::Decided(cert));
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
            // Only the two above ever wait on a guard; anything else is
            // handled where it arrives and has nothing left to wait for.
            _ => true,
        }
    }

    /// Retries every waiting message in arrival order, those still
    /// blocked kept in that order, until a pass handles none.
    fn drain_waiting(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (from, msg) in std::mem::take(&mut self.waiting) {
                if self.try_handle(from, &msg, ctx) {
                    progressed = true;
                } else {
                    self.waiting.push((from, msg));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Durable state (crash snapshots)
// ---------------------------------------------------------------------------

/// Frame kind tag for GSbS process snapshots. `0x010F` since neither the
/// signers of the counted safe-acks nor the rounds whose certificate
/// went out are stored: they are the safe-acks' signers and the keys of
/// `decided_certs`. The `0x0104`, `0x010A` and `0x010C` layouts are
/// retired (see [`crate::recovery`]).
pub const GSBS_SNAPSHOT_KIND: u16 = 0x010F;

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
/// `safe_r`), the waiting buffer and the whole decision
/// history. Held records are written next to the set each will join
/// (`held_inits` after `safety_sets`, held safe-acks after the counted
/// ones, `held_acks` after `ack_certs`): peers send their `Init`s
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
            current_safe_req,
            proposed_set,
            proposal_digest,
            ack_certs,
            held_acks,
            safe_candidates,
            proofs,
            safe_r,
            decided_certs,
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
        safe_acks.write(w);
        proposed_set.records().encode(w);
        proposal_digest.encode(w);
        ack_certs.encode(w);
        held_acks.encode(w);
        safe_candidates.encode(w);
        proofs.encode(w);
        w.var(*safe_r);
        decided_certs.encode(w);
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
        let safe_acks = SafeAcks::read(r, &current_safe_req)?;
        let proposed_set = Valued::new(Wire::decode(r)?);
        let proposal_digest = Wire::decode(r)?;
        let ack_certs = Wire::decode(r)?;
        let held_acks = Wire::decode(r)?;
        let safe_candidates = Wire::decode(r)?;
        let proofs = Wire::decode(r)?;
        let safe_r = r.var()?;
        let decided_certs = Wire::decode(r)?;
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
            current_safe_req,
            proposed_set,
            proposal_digest,
            ack_certs,
            held_acks,
            safe_candidates,
            proofs,
            safe_r,
            decided_certs,
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
                if safetying::verified(&mut self.verifier, round, &set) {
                    let candidates = self.safe_candidates.entry(round).or_default();
                    let signer = (self.me, &self.keypair);
                    let reply =
                        safetying::answer(&mut self.verifier, signer, candidates, round, set);
                    ctx.send(from, GsbsMsg::SafeAck(reply));
                }
            }
            GsbsMsg::SafeAck(reply) => {
                if self.state != GsbsState::Safetying || reply.round != self.round {
                    return;
                }
                // A failed sender is simply not counted (no `byz` here).
                let quorum = self.config.quorum();
                let request = &self.current_safe_req;
                self.safe_acks
                    .collect(&mut self.verifier, quorum, from, reply, request);
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
                .map(|i| SafeAck::sign(0, echo.clone(), vec![], i, &Keypair::for_process(i)))
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
