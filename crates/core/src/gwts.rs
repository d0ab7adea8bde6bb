//! **Generalized Wait Till Safe** (GWTS) — Algorithms 3 and 4.
//!
//! Solves *Generalized* Byzantine Lattice Agreement: inputs arrive as an
//! (in principle infinite) stream; values are batched per decision round;
//! each round runs the two-phase WTS pattern. The two generalization
//! hazards the paper identifies are handled exactly as prescribed:
//!
//! * **Round clogging** — Byzantine proposers pretending to decide and
//!   rushing ahead would flood acceptors with future-round proposals.
//!   Defense: acceptors *trust* round `r` (process its messages) only
//!   after seeing public evidence that round `r − 1` legitimately ended
//!   (`Safe_r`, Lemmas 6/7).
//! * **Public acceptance** — acks are *reliably broadcast* rather than
//!   sent point-to-point, making quorum formation public, so any correct
//!   proposer can adopt a committed proposal of round `r` as its own
//!   decision (provided Local Stability is preserved), and acceptors can
//!   advance `Safe_r` consistently.
//!
//! Interpretation note (documented in DESIGN.md): the paper writes the
//! proposer `SAFE` check as `⊆ SvS[r]`; since `Proposed_set` accumulates
//! values from *all* earlier rounds, `SvS[r]` must be read cumulatively —
//! the proof of Theorem 4 indeed works with `W_r = ∪_{r'≤r} SvS[r']`.
//! We therefore check safety against the union of all delivered
//! disclosures, which is exactly the `∃r` form the paper's acceptor
//! predicate `SAFEA` already has.
//!
//! # What an ack carries
//!
//! `Accepted_set` only grows, so ack `k` of an origin (`k` is its rbcast
//! tag, a per-origin counter) carries `Accepted_set ∖ (set of ack k − 1)`
//! and a marker saying so. The first ack, the first after a restore, and
//! one whenever the additions sent since would amount to one, is *full*:
//! the whole set. A receiver rebuilds ack `k` from its rebuilt ack `k − 1`;
//! an early ack waits, a full one never does and the stream goes on from
//! it. `SAFE`, `Safe_r`, `ack_history`, quorums and `has_committed` see
//! rebuilt acks only, so the paper's arguments read as before:
//!
//! * Reliable broadcast agrees on one record per `(origin, tag)` and the
//!   rebuilt set is a function of the origin's records alone (additions
//!   that overlap the previous set void the ack for everyone), so correct
//!   processes that rebuild an ack rebuild the same one; quorums are
//!   counted over those: Lemmas 6/7 and Theorem 4 never see a delta.
//! * Totality delivers every ack of a correct origin everywhere: its
//!   stream has no gap and each ack is rebuilt, once.
//! * A Byzantine origin can leave gaps, open with additions or overlap;
//!   an ack that cannot be rebuilt counts as never sent — silence.
//!
//! The price is the wait for earlier acks. What waits is kept while a
//! later ack may be rebuilt from it (`prune_old_rounds`): dropped with
//! its round, as `pending_acks` are, it would cost a correct origin's
//! *current* votes, and liveness, whenever one ack is slower than two
//! rounds. A Byzantine origin can so park acks for good (never sending
//! the one right below its next full ack), as acks for far-future rounds
//! always could. A delivery a crash swept is a gap too: that origin's
//! votes are lost *here* until its next full ack.
//!
//! # What is said once
//!
//! Alg. 4 reliably broadcasts one ack per accepted request. Here an ack
//! is a public statement — "origin holds set `S` in round `r`" — made once:
//! an acceptor whose `Accepted_set` is still the set of its previous ack,
//! already broadcast for the request's round, answers that request with a
//! private receipt (an empty [`GwtsMsg::Nack`]: "I hold nothing you lack")
//! and broadcasts nothing. Quorums are counted per `(round, set)` over
//! origins; `destination` and `ts` stay in the record for the request
//! delta watermarks and nowhere else.
//!
//! * *Assumption.* No argument of the paper reads whom an ack answered:
//!   comparability is quorum intersection over acceptors whose set only
//!   grows (it reads origin and set), and Lemmas 6/7 need a quorum that
//!   *trusted* round `r` — an ack for `r` is still only ever broadcast
//!   while handling a round-`r` request with `r ≤ Safe_r`.
//! * *No later.* Every `(round, ts, destination, set)` quorum of Alg. 4
//!   is a `(round, set)` quorum, and a receipt is sent only by an origin
//!   whose vote for `(round, set)` is already on its way to everyone.
//! * *Guard.* `gwts.rs::try_handle` (`acked_rounds`) decides broadcast or
//!   receipt; `gwts.rs::try_absorb_ack` counts origins per set, so a
//!   Byzantine origin repeating one set under many `(destination, ts)` is
//!   one vote. A restored acceptor forgets what it said and says it again.
//! * *Tests.* `said_once_tests` (unit, and the broadcasts-per-acceptor
//!   count that fails if the per-request broadcast comes back).

use crate::config::SystemConfig;
use crate::value::Value;
use crate::valueset::{DeltaReceiver, DeltaSender, SetUpdate, ValueSet};
use bgla_codec::{decode_frame, encode_frame, var_len, CodecError, Reader, Wire, Writer};
use bgla_rbcast::{RbMsg, RbcastEngine};
use bgla_simnet::{Context, Process, ProcessId, WireMessage};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

/// Frame kind of a [`GwtsProcess`] crash-recovery snapshot.
pub const GWTS_SNAPSHOT_KIND: u16 = 0x0108;

/// A reliably-broadcast acceptance record (the paper's
/// `<ack, Accepted_set, destination, sender, ts, round>`; the sender is
/// the authenticated rbcast origin). Deviation from Alg. 4: one record is
/// broadcast per `(round, Accepted_set)` an acceptor holds, not one per
/// request, and `destination`/`ts` name the request that happened to
/// trigger it — see "What is said once" in the module doc. Fields are
/// declared cheapest first: the derived comparisons walk the set only
/// between records that agree on round, timestamp and destination.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AckRecord<V: Value> {
    /// Round number.
    pub round: u64,
    /// Proposer's refinement timestamp.
    pub ts: u64,
    /// The proposer whose request triggered this acceptance.
    pub destination: ProcessId,
    /// Whether `accepted` is the whole set, or (on the wire only) what the
    /// origin's previous record lacked — see the module doc.
    pub full: bool,
    /// The set the acceptor accepted.
    pub accepted: ValueSet<V>,
}

impl<V: Value> AckRecord<V> {
    /// The length of the [`Wire`] encoding below.
    pub fn wire_size(&self) -> usize {
        1 + self.accepted.wire_size()
            + var_len(self.destination as u64)
            + var_len(self.ts)
            + var_len(self.round)
    }
}

impl<V: Value> Wire for AckRecord<V> {
    fn encode(&self, w: &mut Writer) {
        self.full.encode(w);
        self.accepted.encode(w);
        w.usize(self.destination);
        w.var(self.ts);
        w.var(self.round);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(AckRecord {
            full: Wire::decode(r)?,
            accepted: Wire::decode(r)?,
            destination: r.usize()?,
            ts: r.var()?,
            round: r.var()?,
        })
    }
}

/// GWTS wire messages.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum GwtsMsg<V: Value> {
    /// Disclosure of `Batch[r]` via reliable broadcast (tag = round).
    Disc(RbMsg<ValueSet<V>>),
    /// Proposer → acceptors.
    AckReq {
        /// Cumulative proposal (delta-encoded per acceptor).
        proposed: SetUpdate<V>,
        /// Refinement timestamp.
        ts: u64,
        /// Round.
        round: u64,
    },
    /// Acceptor acks are reliably broadcast (tag = per-origin counter).
    Ack(RbMsg<AckRecord<V>>),
    /// Point-to-point reply: what the acceptor holds that the proposal
    /// lacks. Empty, it refuses nothing: it is the receipt of a request
    /// whose public ack the acceptor had already broadcast.
    Nack {
        /// The acceptor's `Accepted_set ∖ proposed`.
        accepted: ValueSet<V>,
        /// Timestamp copied from the request.
        ts: u64,
        /// Round copied from the request.
        round: u64,
    },
}

impl<V: Value> WireMessage for GwtsMsg<V> {
    fn kind(&self) -> &'static str {
        match self {
            GwtsMsg::Disc(m) => match m {
                RbMsg::Init { .. } => "disc_init",
                RbMsg::Echo { .. } => "disc_echo",
                RbMsg::Ready { .. } => "disc_ready",
            },
            GwtsMsg::AckReq { .. } => "ack_req",
            GwtsMsg::Ack(m) => match m {
                RbMsg::Init { .. } => "ack_init",
                RbMsg::Echo { .. } => "ack_echo",
                RbMsg::Ready { .. } => "ack_ready",
            },
            GwtsMsg::Nack { .. } => "nack",
        }
    }
    /// The length of the [`Wire`] encoding below, field for field.
    fn wire_size(&self) -> usize {
        1 + match self {
            GwtsMsg::Disc(m) => m.header_len() + m.value().wire_size(),
            GwtsMsg::AckReq {
                proposed,
                ts,
                round,
            } => proposed.wire_size() + var_len(*ts) + var_len(*round),
            GwtsMsg::Ack(m) => m.header_len() + m.value().wire_size(),
            GwtsMsg::Nack {
                accepted,
                ts,
                round,
            } => accepted.wire_size() + var_len(*ts) + var_len(*round),
        }
    }
}

impl<V: Value> Wire for GwtsMsg<V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            GwtsMsg::Disc(m) => {
                w.u8(0);
                m.encode(w);
            }
            GwtsMsg::AckReq {
                proposed,
                ts,
                round,
            } => {
                w.u8(1);
                proposed.encode(w);
                w.var(*ts);
                w.var(*round);
            }
            GwtsMsg::Ack(m) => {
                w.u8(2);
                m.encode(w);
            }
            GwtsMsg::Nack {
                accepted,
                ts,
                round,
            } => {
                w.u8(3);
                accepted.encode(w);
                w.var(*ts);
                w.var(*round);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(GwtsMsg::Disc(Wire::decode(r)?)),
            1 => Ok(GwtsMsg::AckReq {
                proposed: Wire::decode(r)?,
                ts: r.var()?,
                round: r.var()?,
            }),
            2 => Ok(GwtsMsg::Ack(Wire::decode(r)?)),
            3 => Ok(GwtsMsg::Nack {
                accepted: Wire::decode(r)?,
                ts: r.var()?,
                round: r.var()?,
            }),
            _ => Err(CodecError::Invalid("gwts msg tag")),
        }
    }
}

/// Proposer phase within the current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GwtsState {
    /// Collecting round-`r` disclosures.
    Disclosing,
    /// Proposing / refining in round `r`.
    Proposing,
    /// Finished `max_rounds` rounds (simulation-only terminal state; the
    /// real protocol never stops).
    Done,
}

impl Wire for GwtsState {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            GwtsState::Disclosing => 0,
            GwtsState::Proposing => 1,
            GwtsState::Done => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(GwtsState::Disclosing),
            1 => Ok(GwtsState::Proposing),
            2 => Ok(GwtsState::Done),
            _ => Err(CodecError::Invalid("gwts state tag")),
        }
    }
}

/// A correct GWTS participant (proposer + acceptor co-located).
pub struct GwtsProcess<V: Value> {
    /// System parameters.
    pub config: SystemConfig,
    me: ProcessId,
    /// Values to inject at the start of each round (the input stream,
    /// pre-batched by arrival round). [`GwtsProcess::new_value`] appends
    /// at runtime instead, as the RSM does.
    pub input_schedule: BTreeMap<u64, Vec<V>>,
    /// Number of rounds to run before going quiescent (the paper's
    /// protocol runs forever; simulations must stop).
    pub max_rounds: u64,

    state: GwtsState,
    /// Current round.
    pub round: u64,
    ts: u64,
    rb_disc: RbcastEngine<ValueSet<V>>,
    rb_ack: RbcastEngine<AckRecord<V>>,
    next_ack_tag: u64,
    /// Acceptor: the set of this process's previous ack; the next one
    /// carries `accepted_set ∖ last_acked`.
    last_acked: ValueSet<V>,
    /// Acceptor: bytes of additions acked since the last full record.
    ack_delta_bytes: usize,
    /// Acceptor: the rounds `last_acked` was broadcast for; a request of
    /// one of them accepted into that same set gets a receipt instead.
    acked_rounds: BTreeSet<u64>,
    /// Per origin, the set of its newest rebuilt ack, and the tag of the
    /// ack to rebuild from it (not delivered yet).
    ack_heads: BTreeMap<ProcessId, (u64, ValueSet<V>)>,
    /// Sets of rebuilt acks that a full record of their origin overtook,
    /// by the `(origin, tag)` still to be rebuilt from them.
    ack_bases: BTreeMap<(ProcessId, u64), ValueSet<V>>,
    /// Delivered acks that carry additions, by `(origin, tag)`, whose
    /// origin's previous ack is not rebuilt yet.
    ack_waiting: BTreeMap<(ProcessId, u64), AckRecord<V>>,
    /// Per-round pending input batches.
    batches: BTreeMap<u64, Vec<V>>,
    /// Union of all delivered disclosures (cumulative SvS).
    svs_all: ValueSet<V>,
    /// Disclosure deliveries per round.
    counters: BTreeMap<u64, usize>,
    /// Cumulative proposal.
    proposed_set: ValueSet<V>,
    /// Acceptor: current accepted set.
    accepted_set: ValueSet<V>,
    /// Acceptor: highest trusted round.
    pub safe_r: u64,
    /// Quorum bookkeeping: round -> accepted set -> origins that broadcast it.
    ack_history: BTreeMap<u64, BTreeMap<ValueSet<V>, BTreeSet<ProcessId>>>,
    /// Rounds in which some set has a quorum of origins — noted when
    /// the quorum forms, so `Safe_r` never re-counts.
    committed_rounds: BTreeSet<u64>,
    /// Non-disclosure messages waiting on safety / round guards.
    waiting: Vec<(ProcessId, GwtsMsg<V>)>,
    /// RB-delivered ack records waiting on safety / round guards.
    pending_acks: Vec<(ProcessId, AckRecord<V>)>,
    /// Cumulative decision (Local Stability floor).
    decided_set: ValueSet<V>,
    /// Proposer-side delta bookkeeping (snapshots + reply watermarks).
    // bgla-lint: allow(wire-coverage, "sender watermarks are peer-relative; a restarted process resumes in full-set mode by design")
    delta_tx: DeltaSender<V>,
    /// Acceptor-side delta bases.
    // bgla-lint: allow(wire-coverage, "delta bases are peer-relative; a restarted process resumes in full-set mode by design")
    delta_rx: DeltaReceiver<V>,
    /// Set by [`GwtsProcess::from_snapshot`]: the next `on_start` is a
    /// recovery boot.
    // bgla-lint: allow(wire-coverage, "boot flag: decode sets it true to mark a recovered process")
    recovered: bool,

    /// The decision sequence `Dec_i`.
    pub decisions: Vec<ValueSet<V>>,
    /// Causal depth at each decision.
    pub decision_depths: Vec<u64>,
    /// Refinements per round (Lemma 10 bounds each by `f`).
    pub refinements: BTreeMap<u64, u64>,
    /// Every value this process has proposed (for the generalized
    /// inclusivity checker).
    pub all_inputs: Vec<V>,
}

impl<V: Value> GwtsProcess<V> {
    /// Creates a participant that will run `max_rounds` rounds, feeding
    /// itself `input_schedule[r]` at the start of round `r`.
    pub fn new(
        me: ProcessId,
        config: SystemConfig,
        input_schedule: BTreeMap<u64, Vec<V>>,
        max_rounds: u64,
    ) -> Self {
        GwtsProcess {
            config,
            me,
            input_schedule,
            max_rounds,
            state: GwtsState::Disclosing, // set properly in on_start
            round: 0,
            ts: 0,
            rb_disc: RbcastEngine::new(config.n, config.f),
            rb_ack: RbcastEngine::new(config.n, config.f),
            next_ack_tag: 0,
            last_acked: ValueSet::new(),
            ack_delta_bytes: 0,
            acked_rounds: BTreeSet::new(),
            ack_heads: BTreeMap::new(),
            ack_bases: BTreeMap::new(),
            ack_waiting: BTreeMap::new(),
            batches: BTreeMap::new(),
            svs_all: ValueSet::new(),
            counters: BTreeMap::new(),
            proposed_set: ValueSet::new(),
            accepted_set: ValueSet::new(),
            safe_r: 0,
            ack_history: BTreeMap::new(),
            committed_rounds: BTreeSet::new(),
            waiting: Vec::new(),
            pending_acks: Vec::new(),
            decided_set: ValueSet::new(),
            delta_tx: DeltaSender::new(),
            delta_rx: DeltaReceiver::new(),
            recovered: false,
            decisions: Vec::new(),
            decision_depths: Vec::new(),
            refinements: BTreeMap::new(),
            all_inputs: Vec::new(),
        }
    }

    /// Feeds a new input value: goes into the batch of the *next* round
    /// (`Batch[r+1]`), exactly like Algorithm 3's `new_value`.
    pub fn new_value(&mut self, v: V) {
        self.all_inputs.push(v.clone());
        self.batches.entry(self.round + 1).or_default().push(v);
    }

    /// Process id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Current state.
    pub fn state(&self) -> GwtsState {
        self.state
    }

    /// The latest (largest) decision, if any.
    pub fn latest_decision(&self) -> Option<&ValueSet<V>> {
        self.decisions.last()
    }

    /// The cumulative `Proposed_set` (cheap `O(1)` clone) — read by the
    /// conformance observers to emit refine-snapshot op events.
    pub fn proposed_values(&self) -> ValueSet<V> {
        self.proposed_set.clone()
    }

    /// Whether `set` is known to have been accepted by a Byzantine quorum
    /// — the confirmation predicate of the RSM plug-in (Algorithm 7):
    /// `<ack, set, ·, ·, ·, r>` from `⌊(n+f)/2⌋+1` origins for some `r`
    /// still in the public ack history, or `set` is one of this process's
    /// own decisions, each of which was taken from such a record — so the
    /// answer outlives `prune_old_rounds`.
    pub fn has_committed(&self, set: &ValueSet<V>) -> bool {
        let quorum = self.config.quorum();
        // `decisions` is a chain: sizes never fall.
        let at = self.decisions.partition_point(|d| d.len() < set.len());
        self.decisions.get(at) == Some(set)
            || (self.ack_history.values())
                .any(|acks| acks.get(set).is_some_and(|by| by.len() >= quorum))
    }

    /// Everything a parked message's guard reads. None of it ever moves
    /// back (`svs_all` only grows; `Done` is terminal), so an unchanged
    /// tuple means no parked message became admissible.
    fn guards(&self) -> (usize, u64, u64, u64, GwtsState) {
        (
            self.svs_all.len(),
            self.safe_r,
            self.round,
            self.ts,
            self.state,
        )
    }

    fn safe(&self, set: &ValueSet<V>) -> bool {
        set.is_subset(&self.svs_all)
    }

    fn start_round(&mut self, round: u64, ctx: &mut Context<GwtsMsg<V>>) {
        self.round = round;
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
        self.proposed_set.join_with(&batch);
        self.state = GwtsState::Disclosing;
        for m in self.rb_disc.broadcast(round, batch) {
            ctx.broadcast(GwtsMsg::Disc(m));
        }
        self.maybe_start_proposing(ctx);
    }

    fn maybe_start_proposing(&mut self, ctx: &mut Context<GwtsMsg<V>>) {
        if self.state == GwtsState::Disclosing
            && self.counters.get(&self.round).copied().unwrap_or(0)
                >= self.config.disclosure_threshold()
        {
            self.state = GwtsState::Proposing;
            self.ts += 1;
            self.send_ack_req(ctx);
            self.check_decision(ctx);
        }
    }

    fn send_ack_req(&mut self, ctx: &mut Context<GwtsMsg<V>>) {
        self.delta_tx.record_broadcast(self.ts, &self.proposed_set);
        let updates = self
            .delta_tx
            .encode_broadcast(self.config.n, self.ts, &self.proposed_set);
        for (to, proposed) in updates.into_iter().enumerate() {
            ctx.send(
                to,
                GwtsMsg::AckReq {
                    proposed,
                    ts: self.ts,
                    round: self.round,
                },
            );
        }
    }

    /// The ack of `accepted_set` to the request `(to, ts, round)`: what
    /// the set gained since the previous ack, or the whole set once the
    /// additions acked since the last full record would amount to one —
    /// so full records at most double the stream, and a peer that missed
    /// an ack is at most one set's worth of bytes from the next full one.
    /// The first ack is full by the same rule: all of its set is new.
    ///
    /// The rule reads *wire* bytes, length prefixes included, on purpose:
    /// an ack that adds nothing still costs its prefix, so a stream of
    /// empty deltas keeps counting towards the next full record — the
    /// resync bound [`crate::recovery`] gives a peer that lost one.
    /// (Counting element bytes alone would never re-send a full record on
    /// an idle stream.) Header sizes therefore steer which acks are full.
    fn next_ack(&mut self, to: ProcessId, ts: u64, round: u64) -> AckRecord<V> {
        let added = self.accepted_set.difference(&self.last_acked);
        let sent = self.ack_delta_bytes.saturating_add(added.wire_size());
        let full = sent >= self.accepted_set.wire_size();
        self.ack_delta_bytes = if full { 0 } else { sent };
        self.last_acked = self.accepted_set.clone();
        AckRecord {
            round,
            ts,
            destination: to,
            full,
            accepted: if full { self.last_acked.clone() } else { added },
        }
    }

    /// Advances `Safe_r` while some round-`Safe_r` proposal shows a
    /// public quorum of identical ack records.
    fn advance_safe_r(&mut self) {
        while self.committed_rounds.contains(&self.safe_r) {
            self.safe_r += 1;
        }
    }

    /// Decides if some round-`r` proposal has a public quorum and extends
    /// the current decision; then rolls into the next round.
    fn check_decision(&mut self, ctx: &mut Context<GwtsMsg<V>>) {
        while self.state == GwtsState::Proposing {
            let quorum = self.config.quorum();
            let candidate = self
                .ack_history
                .get(&self.round)
                .into_iter()
                .flatten()
                .filter(|(set, origins)| origins.len() >= quorum && self.decided_set.is_subset(set))
                // Prefer the largest committed set (committed sets of one
                // round are mutually comparable by quorum intersection).
                .max_by_key(|(set, _)| set.len())
                .map(|(set, _)| set.clone());
            let Some(accepted) = candidate else { break };
            self.decisions.push(accepted.clone());
            self.decision_depths.push(ctx.depth);
            self.decided_set = accepted;
            self.prune_old_rounds();
            let next = self.round + 1;
            if next < self.max_rounds {
                self.start_round(next, ctx);
            } else {
                self.state = GwtsState::Done;
            }
        }
    }

    /// Tries to consume one AckReq/Nack; `true` if consumed.
    fn try_handle(
        &mut self,
        from: ProcessId,
        msg: &GwtsMsg<V>,
        ctx: &mut Context<GwtsMsg<V>>,
    ) -> bool {
        match msg {
            // ---- Acceptor role ----
            GwtsMsg::AckReq {
                proposed,
                ts,
                round,
            } => {
                if *round > self.safe_r {
                    return false;
                }
                let Some(full) = self.delta_rx.resolve(from, proposed) else {
                    return true; // delta gap (Byzantine sender): drop
                };
                if !self.safe(&full) {
                    return false;
                }
                let acked = self.accepted_set.is_subset(&full);
                // A proposal equal to what is accepted takes that handle,
                // so acks of equal proposals are rebuilt to one shared set.
                let full = if acked && full.len() == self.accepted_set.len() {
                    self.accepted_set.clone()
                } else {
                    full
                };
                self.delta_rx.record(from, *ts, &full);
                if acked {
                    self.accepted_set = full.clone();
                    if self.accepted_set != self.last_acked {
                        self.acked_rounds.clear();
                    }
                    if self.acked_rounds.insert(*round) {
                        let rec = self.next_ack(from, *ts, *round);
                        let tag = self.next_ack_tag;
                        self.next_ack_tag += 1;
                        for m in self.rb_ack.broadcast(tag, rec) {
                            ctx.broadcast(GwtsMsg::Ack(m));
                        }
                        return true;
                    }
                }
                // What is held that the proposal lacks: a refusal — or
                // nothing, the receipt of a request whose ack is said
                // already (module doc).
                let accepted = self.accepted_set.difference(&full);
                self.accepted_set.join_with(&full);
                ctx.send(
                    from,
                    GwtsMsg::Nack {
                        accepted,
                        ts: *ts,
                        round: *round,
                    },
                );
                true
            }
            // ---- Proposer role ----
            GwtsMsg::Nack {
                accepted,
                ts,
                round,
            } => {
                self.delta_tx.record_reply(from, *ts);
                // A receipt — nothing is held that we lack — or stale.
                if accepted.is_empty()
                    || *round < self.round
                    || (*round == self.round && *ts < self.ts)
                    || self.state == GwtsState::Done
                {
                    return true;
                }
                if self.state != GwtsState::Proposing
                    || *round != self.round
                    || *ts != self.ts
                    || !self.safe(accepted)
                {
                    return false;
                }
                if !accepted.is_subset(&self.proposed_set) {
                    self.proposed_set.join_with(accepted);
                    self.ts += 1;
                    *self.refinements.entry(self.round).or_insert(0) += 1;
                    self.send_ack_req(ctx);
                }
                true
            }
            // bgla-lint: allow(byzantine-panic, "local invariant: the buffering site only ever stores ack_req / nack")
            GwtsMsg::Disc(_) | GwtsMsg::Ack(_) => unreachable!("handled eagerly"),
        }
    }

    /// Takes a reliably-delivered ack through its origin's stream:
    /// rebuilds it from the origin's previous ack unless it is full (or
    /// leaves it waiting for that ack), absorbs it or parks it on the usual
    /// guards, and goes on with the origin's acks that waited for this one.
    fn on_ack_delivered(&mut self, origin: ProcessId, mut tag: u64, mut rec: AckRecord<V>) {
        let head = self.ack_heads.get(&origin).filter(|head| head.0 == tag);
        let at_head = head.is_some();
        let mut base = match head {
            Some(head) => Some(head.1.clone()),
            None => self.ack_bases.remove(&(origin, tag)),
        };
        loop {
            let mut safe = false;
            if !rec.full {
                let Some(prev) = base else {
                    self.ack_waiting.insert((origin, tag), rec);
                    return;
                };
                let Some((set, held)) = self.rebuild_ack(&prev, &rec) else {
                    if at_head {
                        self.ack_heads.remove(&origin);
                    }
                    return; // no record: what follows waits for a full one
                };
                (rec.accepted, rec.full, safe) = (set, true, held);
            }
            if !self.try_absorb_ack(origin, &rec, safe) {
                self.pending_acks.push((origin, rec.clone()));
            }
            let Some(next) = tag.checked_add(1) else {
                return;
            };
            let Some(waiting) = self.ack_waiting.remove(&(origin, next)) else {
                return self.keep_ack_base(origin, next, rec.accepted, at_head);
            };
            base = Some(rec.accepted);
            (tag, rec) = (next, waiting);
        }
    }

    /// The set of an ack that adds to `prev`, and whether it is known to
    /// be SAFE; `None` if the additions overlap `prev` (one rule for all
    /// keeps rebuilt acks identical everywhere). A process that consumed
    /// the request the ack answers holds the set it must rebuild to:
    /// confirming that allocates nothing, shares one handle among the acks
    /// of a proposal, and the handle was SAFE when consumed.
    fn rebuild_ack(&self, prev: &ValueSet<V>, rec: &AckRecord<V>) -> Option<(ValueSet<V>, bool)> {
        let added = &rec.accepted;
        if let Some(held) = self.delta_rx.base(rec.destination, rec.ts) {
            if held.is_disjoint_union(prev, added) {
                return Some((held.clone(), true));
            }
        }
        let set = prev.join(added);
        (set.len() == prev.len() + added.len()).then_some((set, false))
    }

    /// Keeps `set`, just rebuilt, for its origin's ack `next`. The newest
    /// such set is the origin's head; the head it replaces stays a base
    /// unless this chain started from it. Below the head, `set` is only
    /// kept while `next` is to come (a full `next` went ahead without it).
    fn keep_ack_base(&mut self, origin: ProcessId, next: u64, set: ValueSet<V>, from_head: bool) {
        match self.ack_heads.get_mut(&origin) {
            Some(head) if next <= head.0 => {
                if next < head.0 && !self.rb_ack.has_delivered(origin, next) {
                    self.ack_bases.insert((origin, next), set);
                }
            }
            Some(head) if !from_head => {
                let (tag, overtaken) = std::mem::replace(head, (next, set));
                self.ack_bases.insert((origin, tag), overtaken);
            }
            _ => {
                self.ack_heads.insert(origin, (next, set));
            }
        }
    }

    /// Absorbs a rebuilt ack record if safe (`safe`: known to be) and
    /// trusted; `true` if consumed.
    fn try_absorb_ack(&mut self, origin: ProcessId, rec: &AckRecord<V>, safe: bool) -> bool {
        if rec.round > self.safe_r || !(safe || self.safe(&rec.accepted)) {
            return false;
        }
        if rec.destination == self.me {
            // The acceptor publicly holds our proposal of `ts`: later
            // ack_reqs to it may be delta-encoded against that base.
            self.delta_tx.record_reply(origin, rec.ts);
        }
        let acks = self.ack_history.entry(rec.round).or_default();
        let origins = acks.entry(rec.accepted.clone()).or_default();
        origins.insert(origin);
        if origins.len() >= self.config.quorum() {
            self.committed_rounds.insert(rec.round);
        }
        true
    }

    /// Garbage-collects per-round state that can no longer influence the
    /// protocol: once this proposer decided round `r` *and* the acceptor
    /// trusts a round beyond it, ack records and disclosure counters for
    /// rounds `< min(r, safe_r − 1)` are dead weight (decisions only read
    /// records of the current round; `Safe_r` only reads round `safe_r`).
    /// Keeps long streams at O(1) retained rounds instead of O(rounds).
    fn prune_old_rounds(&mut self) {
        let keep_from = self.round.min(self.safe_r.saturating_sub(1));
        self.ack_history = self.ack_history.split_off(&keep_from);
        self.committed_rounds = self.committed_rounds.split_off(&keep_from);
        self.counters = self.counters.split_off(&keep_from);
        self.acked_rounds = self.acked_rounds.split_off(&keep_from);
        self.pending_acks.retain(|(_, rec)| rec.round >= keep_from);
        // A waiting ack rebuilds its successor whatever its own round: it
        // goes once it is old *and* the successor no longer waits for it —
        // was full, or went the same way just before.
        let mut gone = None;
        let mut dead = Vec::new();
        for (&(origin, tag), rec) in self.ack_waiting.iter().rev() {
            let next = (origin, tag.wrapping_add(1));
            let settled = gone == Some(next)
                || !self.ack_waiting.contains_key(&next)
                    && self.rb_ack.has_delivered(origin, next.1);
            if rec.round < keep_from && settled {
                gone = Some((origin, tag));
                dead.push((origin, tag));
            }
        }
        for at in dead {
            self.ack_waiting.remove(&at);
        }
    }

    /// Retained ack-history size (diagnostics: pruning keeps it bounded).
    pub fn ack_history_len(&self) -> usize {
        self.ack_history.values().map(BTreeMap::len).sum()
    }

    /// Acks waiting for earlier ones of their origin (diagnostics: an old
    /// one goes as soon as nothing can be rebuilt from it any more).
    pub fn ack_waiting_len(&self) -> usize {
        self.ack_waiting.len()
    }

    /// Retries the parked messages until none is admissible. Call after a
    /// guard input moved (see [`Self::guards`]); at any other time every
    /// parked message would fail the guard it failed before.
    fn drain_waiting(&mut self, ctx: &mut Context<GwtsMsg<V>>) {
        loop {
            let before = self.guards();
            let mut progressed = false;
            for (from, msg) in std::mem::take(&mut self.waiting) {
                if self.try_handle(from, &msg, ctx) {
                    progressed = true;
                } else {
                    self.waiting.push((from, msg));
                }
            }
            for (origin, rec) in std::mem::take(&mut self.pending_acks) {
                if self.try_absorb_ack(origin, &rec, false) {
                    progressed = true;
                } else {
                    self.pending_acks.push((origin, rec));
                }
            }
            if !progressed {
                break;
            }
            self.advance_safe_r();
            self.check_decision(ctx);
            self.maybe_start_proposing(ctx);
            if self.guards() == before {
                break;
            }
        }
    }
}

/// The durable half of a [`GwtsProcess`]: everything both roles need to
/// stay safe across a restart — both rbcast engines (no re-echo, no
/// re-delivery), the public ack history, both ends of the ack streams
/// (what the engine delivered must stay rebuilt), the Local Stability
/// floor `decided_set`, and the full decision sequence. Volatile and
/// absent: the request delta watermarks (fresh trackers ride the
/// gap→`Full` fallback).
impl<V: Value> Wire for GwtsProcess<V> {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.usize(self.me);
        self.input_schedule.encode(w);
        w.var(self.max_rounds);
        self.state.encode(w);
        w.var(self.round);
        w.var(self.ts);
        self.rb_disc.encode(w);
        self.rb_ack.encode(w);
        w.var(self.next_ack_tag);
        self.last_acked.encode(w);
        w.usize(self.ack_delta_bytes);
        self.acked_rounds.encode(w);
        self.ack_heads.encode(w);
        self.ack_bases.encode(w);
        self.ack_waiting.encode(w);
        self.batches.encode(w);
        self.svs_all.encode(w);
        self.counters.encode(w);
        self.proposed_set.encode(w);
        self.accepted_set.encode(w);
        w.var(self.safe_r);
        self.ack_history.encode(w);
        self.committed_rounds.encode(w);
        self.waiting.encode(w);
        self.pending_acks.encode(w);
        self.decided_set.encode(w);
        self.decisions.encode(w);
        self.decision_depths.encode(w);
        self.refinements.encode(w);
        self.all_inputs.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(GwtsProcess {
            config: Wire::decode(r)?,
            me: r.usize()?,
            input_schedule: Wire::decode(r)?,
            max_rounds: r.var()?,
            state: Wire::decode(r)?,
            round: r.var()?,
            ts: r.var()?,
            rb_disc: Wire::decode(r)?,
            rb_ack: Wire::decode(r)?,
            next_ack_tag: r.var()?,
            last_acked: Wire::decode(r)?,
            ack_delta_bytes: r.usize()?,
            acked_rounds: Wire::decode(r)?,
            ack_heads: Wire::decode(r)?,
            ack_bases: Wire::decode(r)?,
            ack_waiting: Wire::decode(r)?,
            batches: Wire::decode(r)?,
            svs_all: Wire::decode(r)?,
            counters: Wire::decode(r)?,
            proposed_set: Wire::decode(r)?,
            accepted_set: Wire::decode(r)?,
            safe_r: r.var()?,
            ack_history: Wire::decode(r)?,
            committed_rounds: Wire::decode(r)?,
            waiting: Wire::decode(r)?,
            pending_acks: Wire::decode(r)?,
            decided_set: Wire::decode(r)?,
            delta_tx: DeltaSender::new(),
            delta_rx: DeltaReceiver::new(),
            recovered: true,
            decisions: Wire::decode(r)?,
            decision_depths: Wire::decode(r)?,
            refinements: Wire::decode(r)?,
            all_inputs: Wire::decode(r)?,
        })
    }
}

impl<V: Value> GwtsProcess<V> {
    /// Serializes the durable state as a checksummed snapshot frame
    /// ([`GWTS_SNAPSHOT_KIND`]).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_frame(GWTS_SNAPSHOT_KIND, self)
    }

    /// Reconstructs a process from [`Self::snapshot_bytes`] output. The
    /// next `on_start` re-announces (current-`ts` ack request) instead
    /// of starting round 0.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, CodecError> {
        decode_frame(GWTS_SNAPSHOT_KIND, bytes)
    }
}

impl<V: Value> Process<GwtsMsg<V>> for GwtsProcess<V> {
    fn on_start(&mut self, ctx: &mut Context<GwtsMsg<V>>) {
        if self.recovered {
            // Recovery boot: when mid-proposal, re-issue the ack request
            // at the current timestamp — in-flight acks were swept with
            // the crash, and acceptors that already hold this proposal
            // will publicly re-ack it (fresh rbcast instances), letting
            // the quorum re-form. A process recovered mid-*disclosure*
            // sends nothing: its own init survived the crash (outbound
            // traffic is not dropped), and what it lost — inbound
            // echo/ready traffic — cannot be re-requested under plain
            // Bracha broadcast. It may stall until the next round's
            // traffic arrives; see `crate::recovery` for why that is
            // absorbed within the crash budget.
            self.recovered = false;
            // Peers may have seen acks this snapshot predates: the next
            // one is a full record, whatever was acked last, and is
            // broadcast, whatever was said before.
            self.last_acked = ValueSet::new();
            self.acked_rounds.clear();
            if self.state == GwtsState::Proposing {
                self.send_ack_req(ctx);
            }
            // Whatever the snapshot parked is retried once now; after
            // this, only a moved guard triggers a retry.
            self.drain_waiting(ctx);
            return;
        }
        self.start_round(0, ctx);
    }

    fn on_message(&mut self, from: ProcessId, msg: GwtsMsg<V>, ctx: &mut Context<GwtsMsg<V>>) {
        let before = self.guards();
        match msg {
            GwtsMsg::Disc(rb) => {
                let (out, dels) = self.rb_disc.on_message(from, rb);
                for m in out {
                    ctx.broadcast(GwtsMsg::Disc(m));
                }
                if dels.is_empty() {
                    return; // an echo or ready that delivers nothing changes nothing
                }
                for d in dels {
                    self.svs_all.join_with(&d.value);
                    *self.counters.entry(d.tag).or_insert(0) += 1;
                    if self.state == GwtsState::Disclosing {
                        self.proposed_set.join_with(&d.value);
                    }
                }
                self.maybe_start_proposing(ctx);
            }
            GwtsMsg::Ack(rb) => {
                let (out, dels) = self.rb_ack.on_message(from, rb);
                for m in out {
                    ctx.broadcast(GwtsMsg::Ack(m));
                }
                if dels.is_empty() {
                    return;
                }
                for d in dels {
                    self.on_ack_delivered(d.origin, d.tag, d.value);
                }
                self.advance_safe_r();
                self.check_decision(ctx);
            }
            other => {
                if !self.try_handle(from, &other, ctx) {
                    self.waiting.push((from, other));
                }
            }
        }
        if self.guards() != before {
            self.drain_waiting(ctx);
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

    /// Builds an all-correct GWTS system. Inputs are injected only into
    /// rounds `0 .. rounds − 2`: a value fed to the *last* rounds may
    /// legitimately only appear in decisions of rounds beyond the
    /// simulation horizon (the real protocol never stops), so the finite
    /// harness leaves two drain rounds.
    fn gwts_system(
        n: usize,
        f: usize,
        rounds: u64,
        values_per_round: u64,
        scheduler: Box<dyn Scheduler>,
    ) -> Simulation<GwtsMsg<u64>> {
        assert!(rounds >= 3, "need >= 2 drain rounds for inclusivity");
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(scheduler);
        for i in 0..n {
            let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for r in 0..rounds - 2 {
                let vals = (0..values_per_round)
                    .map(|k| (i as u64) * 1_000_000 + r * 1_000 + k)
                    .collect();
                schedule.insert(r, vals);
            }
            b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
        }
        b.build()
    }

    fn collect(
        sim: &Simulation<GwtsMsg<u64>>,
        n: usize,
    ) -> (Vec<Vec<ValueSet<u64>>>, Vec<Vec<u64>>) {
        let mut seqs = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..n {
            let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
            seqs.push(p.decisions.clone());
            inputs.push(p.all_inputs.clone());
        }
        (seqs, inputs)
    }

    #[test]
    fn honest_stream_decides_every_round() {
        let (n, f, rounds) = (4, 1, 4u64);
        let mut sim = gwts_system(n, f, rounds, 2, Box::new(FifoScheduler::new()));
        let out = sim.run(10_000_000);
        assert!(out.quiescent);
        let (seqs, inputs) = collect(&sim, n);
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(s.len(), rounds as usize, "process {i} decision count");
        }
        spec::check_local_stability(&seqs).unwrap();
        spec::check_global_comparability(&seqs).unwrap();
        spec::check_generalized_inclusivity(&inputs, &seqs).unwrap();
    }

    #[test]
    fn random_schedules_preserve_generalized_spec() {
        for seed in 0..15 {
            let (n, f, rounds) = (4, 1, 3u64);
            let mut sim = gwts_system(n, f, rounds, 1, Box::new(RandomScheduler::new(seed)));
            let out = sim.run(10_000_000);
            assert!(out.quiescent, "seed {seed}");
            let (seqs, inputs) = collect(&sim, n);
            for (i, s) in seqs.iter().enumerate() {
                assert_eq!(s.len(), rounds as usize, "seed {seed} p{i}");
            }
            spec::check_local_stability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            spec::check_generalized_inclusivity(&inputs, &seqs)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn larger_system_multi_round() {
        let (n, f, rounds) = (7, 2, 3u64);
        let mut sim = gwts_system(n, f, rounds, 2, Box::new(RandomScheduler::new(7)));
        let out = sim.run(50_000_000);
        assert!(out.quiescent);
        let (seqs, inputs) = collect(&sim, n);
        for s in &seqs {
            assert_eq!(s.len(), rounds as usize);
        }
        spec::check_local_stability(&seqs).unwrap();
        spec::check_global_comparability(&seqs).unwrap();
        spec::check_generalized_inclusivity(&inputs, &seqs).unwrap();
    }

    #[test]
    fn refinements_bounded_per_round() {
        for seed in 0..10 {
            let (n, f, rounds) = (4, 1, 3u64);
            let mut sim = gwts_system(n, f, rounds, 1, Box::new(RandomScheduler::new(seed)));
            sim.run(10_000_000);
            for i in 0..n {
                let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
                for (r, c) in &p.refinements {
                    // Lemma 10: at most f refinements per round... plus
                    // the slack of concurrent proposers racing within the
                    // round (the proof counts set growth, each nack adds
                    // at least one of at most n new values per round).
                    assert!(
                        *c <= n as u64,
                        "seed {seed} p{i} round {r}: {c} refinements"
                    );
                }
            }
        }
    }

    /// Process 0 of a 4-process system, started, with one ack request for
    /// round 1 parked (`safe_r` is 0) — and then made admissible behind
    /// the protocol's back, so that any retry of the parked messages shows.
    fn process_with_an_admissible_parked_request() -> GwtsProcess<u64> {
        let mut p = GwtsProcess::new(0, SystemConfig::new(4, 1), BTreeMap::new(), 4);
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        p.on_start(&mut ctx);
        let request = GwtsMsg::AckReq {
            proposed: SetUpdate::Full(ValueSet::new()),
            ts: 1,
            round: 1,
        };
        p.on_message(1, request, &mut ctx);
        assert_eq!(p.waiting.len(), 1);
        p.safe_r = 1;
        p
    }

    #[test]
    fn echo_or_ready_that_delivers_nothing_changes_nothing() {
        let mut p = process_with_an_admissible_parked_request();
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        let rec = AckRecord {
            round: 0,
            ts: 1,
            destination: 1,
            full: true,
            accepted: ValueSet::new(),
        };
        let (origin, tag) = (2, 0);
        let mut steps: Vec<(ProcessId, GwtsMsg<u64>, usize)> = Vec::new();
        // The third echo reaches ⌈(n+f+1)/2⌉ = 3: the engine forwards its
        // ready to all four. Two readies stay below 2f+1 = 3.
        for from in 1..=3 {
            let value = rec.clone();
            let echo = GwtsMsg::Ack(RbMsg::Echo { origin, tag, value });
            steps.push((from, echo, if from == 3 { 4 } else { 0 }));
        }
        for from in 1..=2 {
            let value = rec.clone();
            steps.push((from, GwtsMsg::Ack(RbMsg::Ready { origin, tag, value }), 0));
            let value = ValueSet::singleton(9);
            steps.push((from, GwtsMsg::Disc(RbMsg::Echo { origin, tag, value }), 0));
        }
        for (from, msg, forwards) in steps {
            p.on_message(from, msg, &mut ctx);
            let out = ctx.take_outbox();
            assert_eq!(out.len(), forwards);
            assert!(out
                .iter()
                .all(|(_, m)| matches!(m, GwtsMsg::Ack(RbMsg::Ready { .. }))));
            assert_eq!((p.round, p.safe_r, p.ack_history_len()), (0, 1, 0));
            assert!(p.decisions.is_empty());
            assert_eq!(p.waiting.len(), 1, "no guard moved: nothing is retried");
        }
    }

    #[test]
    fn restored_process_retries_parked_messages_at_boot() {
        let p = process_with_an_admissible_parked_request();
        let mut q = GwtsProcess::<u64>::from_snapshot(&p.snapshot_bytes()).unwrap();
        assert_eq!(q.waiting.len(), 1);
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        q.on_start(&mut ctx);
        assert!(q.waiting.is_empty());
        let value = AckRecord {
            round: 1,
            ts: 1,
            destination: 1,
            full: true,
            accepted: ValueSet::new(),
        };
        let ack = GwtsMsg::Ack(RbMsg::Init { tag: 0, value });
        let expected: Vec<_> = (0..4).map(|to| (to, ack.clone())).collect();
        assert_eq!(ctx.take_outbox(), expected);
    }

    #[test]
    fn empty_batches_still_progress() {
        // Processes with no inputs at all still decide every round
        // (decisions may be empty sets — bottom of the lattice).
        let config = SystemConfig::new(4, 1);
        let mut b = SimulationBuilder::new();
        for i in 0..4 {
            b = b.add(Box::new(GwtsProcess::<u64>::new(
                i,
                config,
                BTreeMap::new(),
                2,
            )));
        }
        let mut sim = b.build();
        let out = sim.run(10_000_000);
        assert!(out.quiescent);
        for i in 0..4 {
            let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
            assert_eq!(p.decisions.len(), 2);
        }
    }
}

#[cfg(test)]
mod pruning_tests {
    use super::*;
    use bgla_simnet::{FifoScheduler, SimulationBuilder};

    /// State does not grow linearly with the number of rounds: the
    /// retained ack history stays bounded by a per-round constant.
    #[test]
    fn ack_history_stays_bounded_across_many_rounds() {
        let (n, f) = (4usize, 1usize);
        let config = SystemConfig::new(n, f);
        let run = |rounds: u64| -> usize {
            let mut b = SimulationBuilder::new().scheduler(Box::new(FifoScheduler::new()));
            for i in 0..n {
                let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                for r in 0..rounds.saturating_sub(2) {
                    schedule.insert(r, vec![(i as u64) * 1_000 + r]);
                }
                b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
            }
            let mut sim = b.build();
            sim.run(u64::MAX / 2);
            (0..n)
                .map(|i| {
                    sim.process_as::<GwtsProcess<u64>>(i)
                        .unwrap()
                        .ack_history_len()
                })
                .max()
                .unwrap()
        };
        let short = run(4);
        let long = run(12);
        // 3x the rounds must not mean 3x the retained state.
        assert!(
            long <= short * 2,
            "ack history grew with rounds: {short} -> {long}"
        );
    }

    /// Pruning must not break any property: re-run the multi-round spec
    /// battery at a longer horizon.
    #[test]
    fn long_stream_spec_holds_with_pruning() {
        let (n, f, rounds) = (4usize, 1usize, 10u64);
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(FifoScheduler::new()));
        for i in 0..n {
            let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for r in 0..rounds - 2 {
                schedule.insert(r, vec![(i as u64) * 1_000 + r]);
            }
            b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
        }
        let mut sim = b.build();
        let out = sim.run(u64::MAX / 2);
        assert!(out.quiescent);
        let mut seqs = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..n {
            let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
            assert_eq!(p.decisions.len(), rounds as usize);
            seqs.push(p.decisions.clone());
            inputs.push(p.all_inputs.clone());
        }
        crate::spec::check_local_stability(&seqs).unwrap();
        crate::spec::check_global_comparability(&seqs).unwrap();
        crate::spec::check_generalized_inclusivity(&inputs, &seqs).unwrap();
    }
}

#[cfg(test)]
mod ack_stream_tests {
    use super::*;
    use bgla_simnet::{FifoScheduler, SimulationBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ORIGIN: ProcessId = 1;
    /// Beyond `safe_r` of a fresh process: rebuilt records park in
    /// `pending_acks`, a `Vec`, where a record rebuilt twice would show.
    const ROUND: u64 = 9;

    fn process(me: ProcessId) -> GwtsProcess<u64> {
        GwtsProcess::new(me, SystemConfig::new(4, 1), BTreeMap::new(), 12)
    }

    pub(super) fn vs(v: &[u64]) -> ValueSet<u64> {
        v.iter().copied().collect()
    }

    fn record(full: bool, ts: u64, accepted: &[u64]) -> AckRecord<u64> {
        AckRecord {
            round: ROUND,
            ts,
            destination: 2,
            full,
            accepted: vs(accepted),
        }
    }

    /// Reliably delivers `rec` as `(origin, tag)` at `rx`: readies from
    /// `2f + 1` processes.
    pub(super) fn deliver_from(
        rx: &mut GwtsProcess<u64>,
        origin: ProcessId,
        tag: u64,
        rec: &AckRecord<u64>,
    ) {
        let mut ctx = Context::for_embedding(rx.me, 4, 0, 0);
        for from in 1..=3 {
            let value = rec.clone();
            rx.on_message(
                from,
                GwtsMsg::Ack(RbMsg::Ready { origin, tag, value }),
                &mut ctx,
            );
        }
    }

    fn deliver(rx: &mut GwtsProcess<u64>, tag: u64, rec: &AckRecord<u64>) {
        deliver_from(rx, ORIGIN, tag, rec);
    }

    /// What `rx` rebuilt, sorted by timestamp (the tests give every record
    /// of a stream its own).
    fn rebuilt(rx: &GwtsProcess<u64>) -> Vec<AckRecord<u64>> {
        let mut got: Vec<_> = rx.pending_acks.iter().map(|(_, rec)| rec.clone()).collect();
        got.sort();
        got
    }

    /// `len` acks of an acceptor whose set gains 0–3 values between them:
    /// each record as sent, and the full record it stands for.
    fn stream(rng: &mut StdRng, len: u64) -> Vec<(AckRecord<u64>, AckRecord<u64>)> {
        let mut origin = process(ORIGIN);
        (0..len)
            .map(|ts| {
                for _ in 0..rng.gen_range(0..4u64) {
                    origin.accepted_set.insert(rng.gen_range(0..10_000u64));
                }
                let sent = origin.next_ack(2, ts, ROUND);
                let mut meant = sent.clone();
                (meant.full, meant.accepted) = (true, origin.accepted_set.clone());
                (sent, meant)
            })
            .collect()
    }

    #[test]
    fn ack_stream_reassembles_every_permutation() {
        let seeds = if cfg!(debug_assertions) { 48 } else { 512 };
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let records = stream(&mut rng, 48);
            let fulls: Vec<usize> = (1..records.len()).filter(|&k| records[k].0.full).collect();
            assert!(
                !fulls.is_empty() && fulls.len() < records.len() / 2,
                "seed {seed}: full records {fulls:?} are not amortised"
            );
            let mut order: Vec<usize> = (0..records.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            // One full record is delivered right before its predecessor.
            let k = fulls[rng.gen_range(0..fulls.len())];
            order.retain(|&x| x != k);
            let at = order.iter().position(|&x| x == k - 1).unwrap();
            order.insert(at, k);

            let mut rx = process(0);
            for &k in &order {
                deliver(&mut rx, k as u64, &records[k].0);
            }
            let want: Vec<_> = records.iter().map(|(_, meant)| meant.clone()).collect();
            assert_eq!(rebuilt(&rx), want, "seed {seed}, order {order:?}");
            let parked = rx.ack_waiting.len() + rx.ack_bases.len();
            assert_eq!(parked, 0, "seed {seed}: left parked");
        }
    }

    #[test]
    fn ack_stream_resumes_at_a_full_record_whatever_is_missing() {
        let mut rx = process(0);
        deliver(&mut rx, 0, &record(true, 0, &[1]));
        // Record 1 never arrives: 2 and 3 wait for it.
        deliver(&mut rx, 2, &record(false, 2, &[3]));
        deliver(&mut rx, 3, &record(false, 3, &[4]));
        assert_eq!((rebuilt(&rx).len(), rx.ack_waiting.len()), (1, 2));
        // A full record does not wait, and the stream goes on from it.
        deliver(&mut rx, 4, &record(true, 4, &[1, 2, 3, 4, 5]));
        deliver(&mut rx, 5, &record(false, 5, &[6]));
        let want = [
            record(true, 0, &[1]),
            record(true, 4, &[1, 2, 3, 4, 5]),
            record(true, 5, &[1, 2, 3, 4, 5, 6]),
        ];
        assert_eq!(rebuilt(&rx), want);
        // Once their round is old, 3 goes because 4 was full and 2 because
        // 3 went. Record 1 can still be rebuilt if it comes.
        (rx.round, rx.safe_r) = (ROUND + 1, ROUND + 2);
        rx.prune_old_rounds();
        assert_eq!((rx.ack_waiting.len(), rx.ack_bases.len()), (0, 1));
        deliver(&mut rx, 1, &record(false, 1, &[2]));
        assert_eq!(rebuilt(&rx), [record(true, 1, &[1, 2])]);
        assert_eq!((rx.ack_waiting.len(), rx.ack_bases.len()), (0, 0));
        deliver(&mut rx, 6, &record(false, 6, &[7]));
        assert_eq!(rx.ack_heads[&ORIGIN], (7, vs(&[1, 2, 3, 4, 5, 6, 7])));
    }

    /// An old waiting ack stays for as long as a later one may be rebuilt
    /// from it: dropping it with its round would cost the origin's votes
    /// of the current round whenever one ack is slower than two rounds.
    #[test]
    fn ack_stream_keeps_what_a_newer_ack_is_rebuilt_from() {
        let mut rx = process(0);
        let in_round = |round, rec: AckRecord<u64>| AckRecord { round, ..rec };
        deliver(&mut rx, 0, &in_round(1, record(true, 0, &[1])));
        deliver(&mut rx, 2, &in_round(1, record(false, 2, &[3])));
        deliver(&mut rx, 3, &in_round(5, record(false, 3, &[4])));
        (rx.round, rx.safe_r) = (5, 6);
        rx.prune_old_rounds();
        assert_eq!(rx.ack_waiting.len(), 2);
        deliver(&mut rx, 1, &in_round(1, record(false, 1, &[2])));
        assert!(rebuilt(&rx).contains(&in_round(5, record(true, 3, &[1, 2, 3, 4]))));
    }

    /// Schedules that hold links back for rounds on end (found by a sweep
    /// while acks still went with their round): every round is decided.
    #[test]
    fn ack_stream_survives_links_held_for_rounds() {
        use bgla_simnet::{DelayScheduler, RandomScheduler, Scheduler, TargetedScheduler};
        let held = |seed: u64| -> Box<dyn Scheduler> {
            let links = vec![(0, 1), (1, 0), (2, 1)];
            let inner = Box::new(RandomScheduler::new(seed));
            Box::new(TargetedScheduler::new(links, inner).with_release_after(400 + seed % 7 * 300))
        };
        let mut schedulers: Vec<Box<dyn Scheduler>> =
            vec![Box::new(DelayScheduler::new(221, 1000))];
        schedulers.extend([560, 863, 1048, 1197, 1495, 1573, 1861].map(held));
        for (k, scheduler) in schedulers.into_iter().enumerate() {
            let (n, rounds) = (4usize, 10u64);
            let config = SystemConfig::new(n, 1);
            let mut b = SimulationBuilder::new().scheduler(scheduler);
            for i in 0..n {
                let schedule = (0..rounds - 2)
                    .map(|r| (r, (0..4).map(|v| (i as u64) << 24 | r << 8 | v).collect()))
                    .collect();
                b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
            }
            let mut sim = b.build();
            assert!(sim.run(u64::MAX / 2).quiescent);
            for i in 0..n {
                let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
                assert_eq!(p.decisions.len(), rounds as usize, "schedule {k}, p{i}");
            }
        }
    }

    #[test]
    fn ack_stream_of_a_byzantine_origin_yields_one_reading_or_none() {
        let mut rx = process(0);
        // A stream that opens with additions has nothing to add to.
        deliver(&mut rx, 0, &record(false, 0, &[1]));
        assert!(rebuilt(&rx).is_empty());
        deliver(&mut rx, 1, &record(true, 1, &[1, 2]));
        // Additions that overlap the previous set are no record at all,
        // and nothing is rebuilt from them.
        deliver(&mut rx, 2, &record(false, 2, &[2, 3]));
        deliver(&mut rx, 3, &record(false, 3, &[4]));
        assert_eq!(rebuilt(&rx), [record(true, 1, &[1, 2])]);
        assert!(!rx.ack_heads.contains_key(&ORIGIN));
        // The tag arithmetic has no successor to look for at the top.
        deliver(&mut rx, u64::MAX, &record(true, 4, &[9]));
        assert_eq!(rebuilt(&rx).len(), 2);
        assert_eq!(rx.ack_waiting.len(), 2);
    }

    /// The rebuilt set is the handle of the request the ack answers when
    /// this process consumed that request too, and is then known SAFE.
    #[test]
    fn ack_stream_shares_the_consumed_proposal() {
        let mut rx = process(0);
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        rx.on_start(&mut ctx);
        for (tag, batch) in [(ORIGIN, vs(&[1, 2])), (2, vs(&[3]))] {
            for from in 1..=3 {
                let (origin, value) = (tag, batch.clone());
                rx.on_message(
                    from,
                    GwtsMsg::Disc(RbMsg::Ready {
                        origin,
                        tag: 0,
                        value,
                    }),
                    &mut ctx,
                );
            }
        }
        let proposed = vs(&[1, 2, 3]);
        let request = GwtsMsg::AckReq {
            proposed: SetUpdate::Full(proposed.clone()),
            ts: 1,
            round: 0,
        };
        rx.on_message(2, request, &mut ctx);
        let round = 0;
        deliver(
            &mut rx,
            0,
            &AckRecord {
                round,
                ..record(true, 0, &[1])
            },
        );
        deliver(
            &mut rx,
            1,
            &AckRecord {
                round,
                ..record(false, 1, &[2, 3])
            },
        );
        let (_, head) = &rx.ack_heads[&ORIGIN];
        assert_eq!(*head, proposed);
        assert_eq!(
            head.as_slice().as_ptr(),
            proposed.as_slice().as_ptr(),
            "rebuilt a copy of a set it held"
        );
        assert!(rx.ack_history[&0].contains_key(&proposed));
    }

    /// A process restored from a snapshot older than its last ack issues
    /// tags its peers have delivered: those acks are lost on them, and the
    /// first fresh tag is read against the record the peers hold for the
    /// tag before it. The misreading can only be a set nobody else acks.
    #[test]
    fn ack_stream_of_a_rolled_back_origin_wastes_only_its_own_votes() {
        let mut origin = process(ORIGIN);
        let stale = origin.snapshot_bytes();
        let mut rx = process(0);
        for (ts, set) in [(0, vs(&[1])), (1, vs(&[1, 2]))] {
            origin.accepted_set = set;
            let rec = origin.next_ack(2, ts, ROUND);
            deliver(&mut rx, ts, &rec);
        }
        let before = rebuilt(&rx);
        assert_eq!(before.len(), 2);

        let mut origin = GwtsProcess::<u64>::from_snapshot(&stale).unwrap();
        origin.on_start(&mut Context::for_embedding(ORIGIN, 4, 0, 0));
        assert_eq!(origin.next_ack_tag, 0, "the snapshot predates both acks");
        // This incarnation accepted 50..60 and never saw 1 or 2.
        let accepted: Vec<u64> = (50..60).collect();
        origin.accepted_set = vs(&accepted);
        let reissued = [origin.next_ack(2, 10, ROUND), origin.next_ack(2, 11, ROUND)];
        assert!(reissued[0].full, "first ack after a restore is full");
        deliver(&mut rx, 0, &reissued[0]);
        deliver(&mut rx, 1, &reissued[1]);
        assert_eq!(rebuilt(&rx), before, "tags 0 and 1 were delivered before");
        origin.accepted_set.insert(60);
        deliver(&mut rx, 2, &origin.next_ack(2, 12, ROUND));
        assert_eq!(rx.ack_heads[&ORIGIN].1, vs(&[1, 2, 60]));
        // The origin's next full record ends the misreading.
        origin.ack_delta_bytes = usize::MAX;
        deliver(&mut rx, 3, &origin.next_ack(2, 13, ROUND));
        assert_eq!(rx.ack_heads[&ORIGIN].1, origin.accepted_set);
    }

    /// Ack traffic follows what a round adds, not what the stream has
    /// decided so far: late rounds cost what early rounds cost.
    #[test]
    fn ack_bytes_track_new_values_not_the_decided_set() {
        let (n, rounds) = (4usize, 12u64);
        let config = SystemConfig::new(n, 1);
        let mut b = SimulationBuilder::new().scheduler(Box::new(FifoScheduler::new()));
        for i in 0..n {
            let schedule = (0..rounds)
                .map(|r| (r, vec![(i as u64) * 1_000 + r]))
                .collect();
            b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
        }
        let mut sim = b.build();
        sim.start();
        // Echo bytes sent by the time every process has decided `r` rounds.
        let mut by_round = vec![0u64];
        while sim.step() {
            let decided = (0..n)
                .map(|i| {
                    sim.process_as::<GwtsProcess<u64>>(i)
                        .unwrap()
                        .decisions
                        .len()
                })
                .min()
                .unwrap();
            while by_round.len() <= decided {
                by_round.push(sim.metrics().bytes_by_kind["ack_echo"]);
            }
        }
        assert_eq!(by_round.len(), rounds as usize + 1);
        let (early, late) = (by_round[5] - by_round[2], by_round[12] - by_round[9]);
        assert!(
            late <= 2 * early,
            "rounds 2-4: {early} B, rounds 9-11: {late} B"
        );
    }
}

#[cfg(test)]
mod said_once_tests {
    use super::ack_stream_tests::{deliver_from as deliver, vs};
    use super::*;
    use bgla_simnet::{RandomScheduler, SimulationBuilder};

    /// Process 0 of four, started, with 1..=4 disclosed (hence SAFE).
    fn acceptor() -> (GwtsProcess<u64>, Context<GwtsMsg<u64>>) {
        let mut p = GwtsProcess::new(0, SystemConfig::new(4, 1), BTreeMap::new(), 12);
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        p.on_start(&mut ctx);
        for from in 1..=3 {
            let (origin, tag, value) = (1, 0, vs(&[1, 2, 3, 4]));
            p.on_message(
                from,
                GwtsMsg::Disc(RbMsg::Ready { origin, tag, value }),
                &mut ctx,
            );
        }
        ctx.take_outbox();
        (p, ctx)
    }

    /// The record a process broadcast, if any, and the nacks it sent, by
    /// addressee.
    type Sent = (Option<AckRecord<u64>>, Vec<(ProcessId, ValueSet<u64>)>);

    /// Hands `p` the request `(set, ts, round)` of `from`; what `p` sent.
    fn request(
        p: &mut GwtsProcess<u64>,
        ctx: &mut Context<GwtsMsg<u64>>,
        from: ProcessId,
        (set, ts, round): (&[u64], u64, u64),
    ) -> Sent {
        let proposed = SetUpdate::Full(vs(set));
        p.on_message(
            from,
            GwtsMsg::AckReq {
                proposed,
                ts,
                round,
            },
            ctx,
        );
        let (mut said, mut nacks) = (Vec::new(), Vec::new());
        for (to, msg) in ctx.take_outbox() {
            match msg {
                GwtsMsg::Ack(RbMsg::Init { value, .. }) if to == 0 => said.push(value),
                GwtsMsg::Nack { accepted, .. } => nacks.push((to, accepted)),
                _ => {}
            }
        }
        assert!(said.len() <= 1);
        (said.pop(), nacks)
    }

    #[test]
    fn a_round_and_set_is_broadcast_once_and_repeats_get_a_receipt() {
        let (mut p, mut ctx) = acceptor();
        let (said, nacks) = request(&mut p, &mut ctx, 2, (&[1, 2], 1, 0));
        assert_eq!((said.unwrap().destination, nacks.len()), (2, 0));
        // Same set, same round, another proposer (and the first again):
        // nothing public, one empty nack to the requester alone.
        for (from, ts) in [(3, 1), (2, 2)] {
            let (said, nacks) = request(&mut p, &mut ctx, from, (&[1, 2], ts, 0));
            assert_eq!((said, nacks), (None, vec![(from, vs(&[]))]));
            assert_eq!(p.delta_rx.base(from, ts), Some(&vs(&[1, 2])));
        }
        assert_eq!(p.next_ack_tag, 1);
        // The set grew: said, as the additions to the previous ack.
        let (said, nacks) = request(&mut p, &mut ctx, 3, (&[1, 2, 3], 2, 0));
        let said = said.unwrap();
        assert_eq!(
            (said.full, said.accepted, nacks.len()),
            (false, vs(&[3]), 0)
        );
        // The same set in a round it was not said for: said (nothing new).
        p.safe_r = 1;
        let (said, _) = request(&mut p, &mut ctx, 1, (&[1, 2, 3], 3, 1));
        assert_eq!(
            said.map(|rec| (rec.round, rec.accepted)),
            Some((1, vs(&[])))
        );
        assert_eq!(p.acked_rounds, BTreeSet::from([0, 1]));
        let (said, nacks) = request(&mut p, &mut ctx, 2, (&[1, 2, 3], 4, 1));
        assert_eq!((said, nacks), (None, vec![(2, vs(&[]))]));
        // A refusal says what the proposal lacks, not all that is held.
        let (said, nacks) = request(&mut p, &mut ctx, 2, (&[1, 4], 5, 1));
        assert_eq!((said, nacks), (None, vec![(2, vs(&[2, 3]))]));
        assert_eq!(p.accepted_set, vs(&[1, 2, 3, 4]));
    }

    #[test]
    fn restored_acceptor_says_it_again() {
        let (mut p, mut ctx) = acceptor();
        assert!(request(&mut p, &mut ctx, 2, (&[1, 2], 1, 0)).0.is_some());
        let mut q = GwtsProcess::<u64>::from_snapshot(&p.snapshot_bytes()).unwrap();
        assert_eq!(q.acked_rounds, BTreeSet::from([0]));
        q.on_start(&mut ctx);
        ctx.take_outbox();
        let (said, nacks) = request(&mut q, &mut ctx, 3, (&[1, 2], 1, 0));
        let said = said.unwrap();
        assert_eq!(
            (said.full, said.accepted, nacks.len()),
            (true, vs(&[1, 2]), 0)
        );
        assert_eq!(request(&mut q, &mut ctx, 2, (&[1, 2], 2, 0)).0, None);
    }

    #[test]
    fn receipt_moves_the_proposers_delta_base() {
        let schedule = BTreeMap::from([(0, vec![7u64])]);
        let mut p = GwtsProcess::new(0, SystemConfig::new(4, 1), schedule, 12);
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        p.on_start(&mut ctx);
        for origin in 0..3 {
            let value = if origin == 0 { vs(&[7]) } else { vs(&[]) };
            for from in 1..=3 {
                let (tag, value) = (0, value.clone());
                p.on_message(
                    from,
                    GwtsMsg::Disc(RbMsg::Ready { origin, tag, value }),
                    &mut ctx,
                );
            }
        }
        assert_eq!((p.state, p.ts), (GwtsState::Proposing, 1));
        let full = SetUpdate::Full(vs(&[7, 8]));
        assert_eq!(p.delta_tx.encode_for(1, 2, &vs(&[7, 8])), full);
        let (accepted, ts, round) = (vs(&[]), 1, 0);
        p.on_message(
            1,
            GwtsMsg::Nack {
                accepted,
                ts,
                round,
            },
            &mut ctx,
        );
        assert!(p.waiting.is_empty() && p.refinements.is_empty());
        let (base_ts, added) = (1, vs(&[8]));
        let delta = SetUpdate::Delta { base_ts, added };
        assert_eq!(p.delta_tx.encode_for(1, 2, &vs(&[7, 8])), delta);
        // A receipt for a timestamp never used parks nothing either.
        let (accepted, ts, round) = (vs(&[]), 9, 9);
        p.on_message(
            1,
            GwtsMsg::Nack {
                accepted,
                ts,
                round,
            },
            &mut ctx,
        );
        assert!(p.waiting.is_empty());
    }

    #[test]
    fn a_quorum_is_counted_per_set_over_origins() {
        let (mut p, _) = acceptor();
        let rec = |destination, ts, accepted: &[u64]| AckRecord {
            round: 0,
            ts,
            destination,
            full: true,
            accepted: vs(accepted),
        };
        // A Byzantine origin repeating one set under many requests: one vote.
        for (tag, (destination, ts)) in [(1, 1), (2, 1), (2, 5), (3, 9)].into_iter().enumerate() {
            deliver(&mut p, 1, tag as u64, &rec(destination, ts, &[1, 2]));
        }
        assert_eq!(p.ack_history[&0][&vs(&[1, 2])], BTreeSet::from([1]));
        assert!(!p.has_committed(&vs(&[1, 2])) && p.safe_r == 0);
        // Acks of that set that answered different proposers: one quorum.
        deliver(&mut p, 2, 0, &rec(3, 4, &[1, 2]));
        deliver(&mut p, 3, 0, &rec(0, 2, &[1, 2, 3]));
        assert!(!p.has_committed(&vs(&[1, 2])));
        deliver(&mut p, 0, 0, &rec(2, 7, &[1, 2]));
        assert_eq!(p.ack_history[&0][&vs(&[1, 2])], BTreeSet::from([0, 1, 2]));
        assert!(p.has_committed(&vs(&[1, 2])) && !p.has_committed(&vs(&[1, 2, 3])));
        assert_eq!(p.safe_r, 1);
    }

    #[test]
    fn own_decisions_stay_committed_after_their_round_is_pruned() {
        let (mut p, _) = acceptor();
        p.decisions = vec![vs(&[1]), vs(&[1]), vs(&[1, 2, 3])];
        assert!(p.ack_history.is_empty());
        for (set, committed) in [
            (vs(&[1]), true),
            (vs(&[1, 2, 3]), true),
            (vs(&[]), false),
            (vs(&[2]), false),
            (vs(&[1, 2]), false),
            (vs(&[1, 2, 4]), false),
            (vs(&[1, 2, 3, 4]), false),
        ] {
            assert_eq!(p.has_committed(&set), committed, "{set:?}");
        }
    }

    /// Forwards to a correct process and keeps every ack record an origin
    /// opened a broadcast with.
    struct Tap {
        inner: GwtsProcess<u64>,
        inits: BTreeMap<(ProcessId, u64), AckRecord<u64>>,
    }

    impl Process<GwtsMsg<u64>> for Tap {
        fn on_start(&mut self, ctx: &mut Context<GwtsMsg<u64>>) {
            self.inner.on_start(ctx);
        }
        fn on_message(
            &mut self,
            from: ProcessId,
            msg: GwtsMsg<u64>,
            ctx: &mut Context<GwtsMsg<u64>>,
        ) {
            if let GwtsMsg::Ack(RbMsg::Init { tag, value }) = &msg {
                self.inits.insert((from, *tag), value.clone());
            }
            self.inner.on_message(from, msg, ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// The count the benchmark's `msgs_per_op` rests on, as a test: over a
    /// whole run no acceptor broadcasts one `(round, set)` twice — its set
    /// only grows, so a set is known by its size — while most requests it
    /// accepts are repeats. A per-request broadcast fails here.
    #[test]
    fn no_acceptor_broadcasts_a_round_and_set_twice() {
        let (n, rounds) = (10usize, 6u64);
        let config = SystemConfig::new(n, 3);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(3)));
        for i in 0..n {
            let schedule = (0..rounds - 2)
                .map(|r| (r, (0..3).map(|v| (i as u64) << 24 | r << 8 | v).collect()))
                .collect();
            let inner = GwtsProcess::new(i, config, schedule, rounds);
            b = if i == 0 {
                let inits = BTreeMap::new();
                b.add(Box::new(Tap { inner, inits }))
            } else {
                b.add(Box::new(inner))
            };
        }
        let mut sim = b.build();
        assert!(sim.run(u64::MAX / 2).quiescent);
        let tap = sim.process_as::<Tap>(0).unwrap();
        assert_eq!(tap.inner.decisions.len(), rounds as usize);
        let (mut said, mut held) = (BTreeSet::new(), vec![0; n]);
        for (&(origin, tag), rec) in &tap.inits {
            held[origin] = rec.accepted.len() + if rec.full { 0 } else { held[origin] };
            assert!(
                said.insert((origin, rec.round, held[origin])),
                "p{origin} said its {}-value set twice for round {} (ack {tag})",
                held[origin],
                rec.round
            );
        }
        let (broadcasts, receipts) = (said.len() as u64, sim.metrics().sent_by_kind["nack"]);
        let per_round = broadcasts as f64 / (n as u64 * rounds) as f64;
        assert!(
            per_round <= 4.0 && receipts >= 2 * broadcasts,
            "{broadcasts} broadcasts ({per_round:.1} per acceptor per round), {receipts} nacks"
        );
    }
}
