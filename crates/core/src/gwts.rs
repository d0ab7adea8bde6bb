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
//! Interpretation note: the paper writes the
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
//! * An ack also waits for the batches it names ("What a set names"):
//!   like its predecessor, each is delivered here in the end when the
//!   origin is correct.
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
//!
//! # What a set names
//!
//! Every set an ack, an `ack_req` or a `nack` carries travels as a
//! [`NamedSet`]: each delivered disclosure batch the set wholly contains
//! by its [`BatchName`] `(origin, round)`, and the values no named batch
//! holds spelled out. In honest runs nothing is left over; a Byzantine
//! proposer may propose part of a batch, and an acceptor that accepts it
//! spells that part out. Disclosures stay spelled out: they define the
//! names.
//!
//! * *Assumption.* Reliable broadcast agreement and totality: correct
//!   processes that deliver `(origin, round)` deliver one batch, so a
//!   name stands for one set at every correct process, and a batch one
//!   correct process delivered — a correct sender names only those —
//!   is delivered at every correct process.
//! * *Guard.* `gwts.rs::resolve` reads a set once every batch it names is
//!   delivered here and every value it spells out is SAFE here; the set
//!   is then SAFE by construction, so `SAFE` walks no set. Until then it
//!   holds a value that is not SAFE here yet, and the message waits where
//!   an unsafe one always waited: a request or refusal in `waiting`
//!   (`try_handle` returns false), an ack in `ack_waiting`
//!   (`on_ack_delivered`), where it stays the base of its origin's next
//!   ack until it is rebuilt (`prune_old_rounds` drops it only once
//!   nothing is rebuilt from it). Every delivered disclosure moves
//!   `guards()`, even one that adds no value, so what waits is retried.
//!   `gwts.rs::name` finds a set's batches from its own values
//!   (`named_by`), without walking what was disclosed, and a named set
//!   costs at most one byte more than the set spelled out; decoding
//!   refuses names out of order or repeated.
//! * *Cost.* A name buys its receiver at most one delivered batch,
//!   rebuilt once per delivered ack or consumed request — not per echo
//!   ([`crate::adversary::gwts::NameForger`]).
//! * *Tests.* `named_set_tests` (unit), `ack_stream` (acks rebuilt
//!   exactly once when disclosures arrive late), `codec_properties`'
//!   `named_sets_have_one_encoding`, `tests/stream_liveness.rs` (no op
//!   lost when names outrun their batches) and the `NameForger` runs in
//!   `tests/chaos.rs` and `tests/conformance.rs`.
//!
//! # What an acceptor walks
//!
//! `Accepted_set` only grows, and in the RSM it is the history, so a
//! handler that walks it pays per op for the whole history. A delta
//! request `Delta { base, added }` is decided without that walk. The
//! paper's test, `Accepted_set ⊆ base ∪ added`, is decided by counting:
//! with `fresh = added ∖ Accepted_set`, it holds exactly when
//! `|Accepted_set| + |fresh| = |base| + |added ∖ base|` — binary searches
//! of `added`'s few values only. Acked with nothing fresh, the proposal
//! *is* `Accepted_set` and takes its handle; acked with `fresh`, it is
//! `Accepted_set ∪ fresh`; refused, it is `base ∪ added` (the proposer's
//! next base), and `Accepted_set` joins `fresh` alone. Each of these is
//! one merge at most; a refusal still walks `Accepted_set` once more, for
//! what the proposal lacks. A `Full` request is decided by the walk, as it
//! always was: it carries the whole set anyway.
//!
//! * *Assumption.* Every base `delta_rx` holds is a subset of
//!   `Accepted_set`, so the proposal lies inside `Accepted_set ∪ added`,
//!   and contains `Accepted_set` exactly when it is that union: when the
//!   two sizes agree. A consumed proposal is either acked
//!   (`Accepted_set := proposal`) or refused (`Accepted_set ∪= proposal`),
//!   `Accepted_set` never shrinks, only `try_handle` records a base, and
//!   `delta_rx` starts empty after a restore (it is volatile).
//! * *Guard.* `gwts.rs::decide_delta` decides by counting, with a
//!   `debug_assert!` that the base is inside `Accepted_set` and another
//!   that the counted verdict is the walked one, both armed under the
//!   strict test profile.
//! * *Tests.* `acceptor_tests` (random full and delta requests of three
//!   proposers, each checked against the walk over the whole proposal:
//!   verdict, ack or receipt, `Accepted_set`, recorded base and
//!   refusal), the golden
//!   traces, and every GWTS and RSM run of the test suite with the
//!   assertions armed.

use crate::config::SystemConfig;
use crate::value::Value;
use crate::valueset::{DeltaReceiver, DeltaSender, SetUpdate, ValueSet};
use bgla_codec::{decode_frame, encode_frame, var_len, CodecError, Reader, Wire, Writer};
use bgla_rbcast::{RbMsg, RbcastEngine};
use bgla_simnet::{Context, Process, ProcessId, WireMessage};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Frame kind of a [`GwtsProcess`] crash-recovery snapshot.
pub const GWTS_SNAPSHOT_KIND: u16 = 0x0108;

/// A delivered disclosure's name: its rbcast origin and its round (the
/// broadcast's tag). Reliable broadcast delivers one batch per name at
/// every correct process, so the name stands for that batch everywhere.
pub type BatchName = (ProcessId, u64);

/// A value set as GWTS sends it: every delivered disclosure batch the set
/// wholly contains by its [`BatchName`], and the values no named batch
/// holds spelled out — see "What a set names" in the module doc. Clones
/// share one allocation, and the encoded length is cached.
///
/// ```text
/// NamedSet : var(#names) + Σ (var(origin) + var(round)) + ValueSet(rest)
/// ```
///
/// Names are strictly ascending; decoding refuses any other order, and a
/// repeat, as [`ValueSet`] refuses values out of order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct NamedSet<V: Value>(Arc<NamedParts<V>>);

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct NamedParts<V: Value> {
    /// Strictly ascending.
    names: Vec<BatchName>,
    /// The values no named batch holds.
    rest: ValueSet<V>,
    /// Cached encoded length.
    wire: usize,
}

/// Bytes a name takes on the wire.
fn name_len((origin, round): BatchName) -> usize {
    var_len(origin as u64) + var_len(round)
}

impl<V: Value> NamedSet<V> {
    /// The set of the batches `names` and the values `rest`.
    pub fn new(names: BTreeSet<BatchName>, rest: ValueSet<V>) -> Self {
        NamedSet::from_sorted(names.into_iter().collect(), rest)
    }

    /// `names` is strictly ascending.
    fn from_sorted(names: Vec<BatchName>, rest: ValueSet<V>) -> Self {
        let wire = var_len(names.len() as u64)
            + names.iter().map(|&name| name_len(name)).sum::<usize>()
            + rest.wire_size();
        NamedSet(Arc::new(NamedParts { names, rest, wire }))
    }

    /// The batches named, ascending.
    pub fn names(&self) -> &[BatchName] {
        &self.0.names
    }

    /// The values spelled out.
    pub fn rest(&self) -> &ValueSet<V> {
        &self.0.rest
    }

    /// The same set with `name` named besides.
    pub fn and_name(&self, name: BatchName) -> Self {
        let mut names: BTreeSet<BatchName> = self.names().iter().copied().collect();
        names.insert(name);
        NamedSet::new(names, self.rest().clone())
    }

    /// The same set with `values` spelled out besides.
    pub fn and_values(&self, values: &ValueSet<V>) -> Self {
        NamedSet::from_sorted(self.names().to_vec(), self.rest().join(values))
    }

    /// Whether it names nothing and spells nothing: the empty set.
    pub fn is_empty(&self) -> bool {
        self.0.names.is_empty() && self.0.rest.is_empty()
    }
}

impl<V: Value> Default for NamedSet<V> {
    fn default() -> Self {
        NamedSet::from_sorted(Vec::new(), ValueSet::new())
    }
}

/// Every value spelled out, no name: how a set of values no delivered
/// batch holds travels.
impl<V: Value> From<ValueSet<V>> for NamedSet<V> {
    fn from(rest: ValueSet<V>) -> Self {
        NamedSet::from_sorted(Vec::new(), rest)
    }
}

impl<V: Value> Wire for NamedSet<V> {
    fn encode(&self, w: &mut Writer) {
        let NamedParts { names, rest, wire } = &*self.0;
        if w.counted(*wire) {
            return;
        }
        w.usize(names.len());
        for &(origin, round) in names {
            w.usize(origin);
            w.var(round);
        }
        rest.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = r.seq_len()?;
        let mut names: Vec<BatchName> = Vec::with_capacity(count);
        for _ in 0..count {
            let name = (r.usize()?, r.var()?);
            if names.last().is_some_and(|last| *last >= name) {
                return Err(CodecError::Invalid("batch names not strictly ascending"));
            }
            names.push(name);
        }
        Ok(NamedSet::from_sorted(names, ValueSet::decode(r)?))
    }
    fn wire_size(&self) -> usize {
        self.0.wire
    }
}

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
    /// Whether `accepted` is the whole set, or what the origin's previous
    /// record lacked — see the module doc.
    pub full: bool,
    /// The set the acceptor accepted, or its additions, named.
    pub accepted: NamedSet<V>,
}

impl<V: Value> Wire for AckRecord<V> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            round,
            ts,
            destination,
            full,
            accepted,
        } = self;
        full.encode(w);
        accepted.encode(w);
        w.usize(*destination);
        w.var(*ts);
        w.var(*round);
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

/// An ack as rebuilt here: the whole set its origin accepted, SAFE here.
/// What `SAFE`, `Safe_r`, quorums and `ack_history` read.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Ack<V: Value> {
    round: u64,
    ts: u64,
    destination: ProcessId,
    accepted: ValueSet<V>,
}

impl<V: Value> Wire for Ack<V> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            round,
            ts,
            destination,
            accepted,
        } = self;
        accepted.encode(w);
        w.usize(*destination);
        w.var(*ts);
        w.var(*round);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Ack {
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
        /// Cumulative proposal (delta-encoded per acceptor), named.
        proposed: SetUpdate<NamedSet<V>>,
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
        /// The acceptor's `Accepted_set ∖ proposed`, named.
        accepted: NamedSet<V>,
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
    /// Delivered acks not rebuilt yet, by `(origin, tag)`: additions whose
    /// origin's previous ack is not rebuilt yet, and records whose set is
    /// not SAFE here yet (a batch it names is not delivered here).
    ack_waiting: BTreeMap<(ProcessId, u64), AckRecord<V>>,
    /// Per-round pending input batches.
    batches: BTreeMap<u64, Vec<V>>,
    /// Every delivered disclosure by name: what a received name stands for.
    disclosed: BTreeMap<BatchName, ValueSet<V>>,
    /// Every delivered disclosed value (the cumulative SvS), by the
    /// smallest name of a delivered batch holding it: what SAFE reads and
    /// where naming a set starts (derived from `disclosed`).
    named_by: BTreeMap<V, BatchName>,
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
    /// Rebuilt acks waiting for their round to be trusted.
    pending_acks: Vec<(ProcessId, Ack<V>)>,
    /// Cumulative decision (Local Stability floor).
    decided_set: ValueSet<V>,
    /// Proposer-side delta bookkeeping (snapshots + reply watermarks).
    delta_tx: DeltaSender<V>,
    /// Acceptor-side delta bases.
    delta_rx: DeltaReceiver<V>,
    /// Set by [`GwtsProcess::from_snapshot`]: the next `on_start` is a
    /// recovery boot.
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
            disclosed: BTreeMap::new(),
            named_by: BTreeMap::new(),
            counters: BTreeMap::new(),
            proposed_set: ValueSet::new(),
            accepted_set: ValueSet::new(),
            safe_r: 0,
            ack_history: BTreeMap::new(),
            committed_rounds: BTreeSet::new(),
            waiting: Vec::new(),
            pending_acks: Vec::new(),
            decided_set: ValueSet::new(),
            delta_tx: DeltaSender::default(),
            delta_rx: DeltaReceiver::default(),
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
    /// back (`disclosed` only grows, by one name per delivered batch,
    /// whether or not the batch adds a value to `named_by`; `Done` is
    /// terminal), so an unchanged tuple means no parked message became
    /// admissible.
    fn guards(&self) -> (usize, u64, u64, u64, GwtsState) {
        (
            self.disclosed.len(),
            self.safe_r,
            self.round,
            self.ts,
            self.state,
        )
    }

    /// `set` as it is sent: each delivered batch it wholly contains by
    /// name, where the name is shorter than the batch's values, and the
    /// values left over spelled out — never more than one byte longer
    /// than `set` spelled out. A value's batch is found through
    /// `named_by`, and once named, the batch's other values are passed
    /// over: `O(|set| log |set|)` plus one lookup per batch, never a walk
    /// of what was disclosed.
    fn name(&self, set: &ValueSet<V>) -> NamedSet<V> {
        let items = set.as_slice();
        let mut covered = vec![false; items.len()];
        let (mut names, mut left) = (Vec::new(), items.len());
        for (i, v) in items.iter().enumerate() {
            if covered.get(i) != Some(&false) {
                continue;
            }
            let Some((&name, batch)) =
                (self.named_by.get(v)).and_then(|name| self.disclosed.get_key_value(name))
            else {
                continue;
            };
            let spelled = batch.wire_size() - var_len(batch.len() as u64);
            if name_len(name) >= spelled || !batch.iter().all(|w| items.binary_search(w).is_ok()) {
                continue;
            }
            for w in batch.iter() {
                let at = items.binary_search(w).ok();
                if let Some(c) = at.and_then(|at| covered.get_mut(at)).filter(|c| !**c) {
                    (*c, left) = (true, left - 1);
                }
            }
            names.push(name);
        }
        if names.is_empty() {
            return NamedSet::from(set.clone());
        }
        names.sort_unstable();
        let mut rest = Vec::with_capacity(left);
        rest.extend(
            (items.iter().zip(&covered))
                .filter(|(_, covered)| !**covered)
                .map(|(v, _)| v.clone()),
        );
        let named = NamedSet::from_sorted(names, ValueSet::from_sorted(rest));
        if named.wire_size() > set.wire_size() {
            return NamedSet::from(set.clone());
        }
        named
    }

    /// Whether [`Self::resolve`] would resolve `named` — checked without
    /// building anything, as a waiting ack is on each retry.
    fn resolves(&self, named: &NamedSet<V>) -> bool {
        let NamedParts { names, rest, .. } = &*named.0;
        names.iter().all(|name| self.disclosed.contains_key(name))
            && rest.iter().all(|v| self.named_by.contains_key(v))
    }

    /// The set `named` stands for, once every batch it names is delivered
    /// here and every value it spells out is SAFE here — so the set is
    /// SAFE by construction, and no walk of the disclosed values is
    /// needed. `None` until then: it holds a value that is not SAFE here
    /// yet, and the message waits where unsafe ones always waited.
    fn resolve(&self, named: &NamedSet<V>) -> Option<ValueSet<V>> {
        let NamedParts { names, rest, .. } = &*named.0;
        if !rest.iter().all(|v| self.named_by.contains_key(v)) {
            return None;
        }
        let mut batches = Vec::with_capacity(names.len());
        for name in names {
            batches.push(self.disclosed.get(name)?);
        }
        match batches[..] {
            [] => return Some(rest.clone()),
            [batch] if rest.is_empty() => return Some(batch.clone()),
            _ => {}
        }
        let len = rest.len() + batches.iter().map(|batch| batch.len()).sum::<usize>();
        let mut items: Vec<V> = Vec::with_capacity(len);
        items.extend_from_slice(rest.as_slice());
        for batch in batches {
            items.extend_from_slice(batch.as_slice());
        }
        items.sort_unstable();
        items.dedup();
        Some(ValueSet::from_sorted(items))
    }

    /// Takes in the delivered disclosure `batch` of `name`.
    fn disclose(&mut self, name: BatchName, batch: ValueSet<V>) {
        for v in batch.iter() {
            let by = self.named_by.entry(v.clone()).or_insert(name);
            *by = (*by).min(name);
        }
        self.disclosed.insert(name, batch);
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
        // Acceptors on one base share its additions: each set is named once.
        let mut named: Vec<(ValueSet<V>, NamedSet<V>)> = Vec::new();
        let mut name = |set: ValueSet<V>| match named.iter().find(|(s, _)| s.ptr_eq(&set)) {
            Some((_, known)) => known.clone(),
            None => {
                let fresh = self.name(&set);
                named.push((set, fresh.clone()));
                fresh
            }
        };
        for (to, update) in updates.into_iter().enumerate() {
            let proposed = update.map(&mut name);
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
    /// The rule reads *wire* bytes of the sets spelled out, length
    /// prefixes included, on purpose: an ack that adds nothing still
    /// costs its prefix, so a stream of empty deltas keeps counting
    /// towards the next full record — the resync bound [`crate::recovery`]
    /// gives a peer that lost one. (Counting element bytes alone would
    /// never re-send a full record on an idle stream.) Header sizes
    /// therefore steer which acks are full. The spelled-out sizes are
    /// cached, so weighing costs nothing; only the set sent is named
    /// (a batch costs one name in the full record as in the delta that
    /// added it, so the bound carries over to named bytes).
    fn next_ack(&mut self, to: ProcessId, ts: u64, round: u64) -> AckRecord<V> {
        let added = self.accepted_set.difference(&self.last_acked);
        let sent = self.ack_delta_bytes.saturating_add(added.wire_size());
        let full = sent >= self.accepted_set.wire_size();
        self.ack_delta_bytes = if full { 0 } else { sent };
        self.last_acked = self.accepted_set.clone();
        let accepted = self.name(if full { &self.last_acked } else { &added });
        AckRecord {
            round,
            ts,
            destination: to,
            full,
            accepted,
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

    /// The verdict on the delta request `base ∪ added`, where `base` is a
    /// proposal this acceptor consumed: whether it is acked, the proposal,
    /// and what `accepted_set` gains if it is refused. A binary search per
    /// value of `added` and at most one merge, never a walk of
    /// `accepted_set` — see "What an acceptor walks" in the module doc.
    fn decide_delta(
        &self,
        base: &ValueSet<V>,
        added: &ValueSet<V>,
    ) -> (bool, ValueSet<V>, ValueSet<V>) {
        let accepted = &self.accepted_set;
        debug_assert!(
            base.is_subset(accepted),
            "a consumed proposal outgrew Accepted_set"
        );
        let fresh = added.iter().filter(|v| !accepted.contains(v)).cloned();
        let fresh = ValueSet::from_sorted(fresh.collect());
        let new_to_base = added.iter().filter(|v| !base.contains(v)).count();
        // `base ⊆ accepted`, so the proposal lies inside `accepted ∪ added`
        // and holds all of `accepted` exactly when the two are one size.
        let acked = accepted.len() + fresh.len() == base.len() + new_to_base;
        debug_assert_eq!(acked, accepted.is_subset(&base.join(added)));
        let proposal = match (acked, fresh.is_empty()) {
            // The proposal is the accepted set: take its handle.
            (true, true) => accepted.clone(),
            (true, false) => accepted.join(&fresh),
            (false, _) => base.join(added),
        };
        (acked, proposal, fresh)
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
                let (acked, proposal, grown_by) = match proposed {
                    SetUpdate::Full(set) => {
                        let Some(set) = self.resolve(set) else {
                            return false;
                        };
                        let acked = self.accepted_set.is_subset(&set);
                        // A proposal equal to what is accepted takes that
                        // handle, so acks of equal proposals are rebuilt to
                        // one shared set.
                        let set = if acked && set.len() == self.accepted_set.len() {
                            self.accepted_set.clone()
                        } else {
                            set
                        };
                        (acked, set.clone(), set)
                    }
                    SetUpdate::Delta { base_ts, added } => {
                        let Some(base) = self.delta_rx.base(from, *base_ts) else {
                            return true; // delta gap (Byzantine sender): drop
                        };
                        // The base was SAFE when consumed; the additions
                        // once resolved.
                        let Some(added) = self.resolve(added) else {
                            return false;
                        };
                        self.decide_delta(base, &added)
                    }
                };
                self.delta_rx.record(from, *ts, &proposal);
                if acked {
                    self.accepted_set = proposal.clone();
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
                let accepted = self.name(&self.accepted_set.difference(&proposal));
                self.accepted_set.join_with(&grown_by);
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
                if self.state != GwtsState::Proposing || *round != self.round || *ts != self.ts {
                    return false;
                }
                let Some(accepted) = self.resolve(accepted) else {
                    return false;
                };
                if !accepted.is_subset(&self.proposed_set) {
                    self.proposed_set.join_with(&accepted);
                    self.ts += 1;
                    *self.refinements.entry(self.round).or_insert(0) += 1;
                    self.send_ack_req(ctx);
                }
                true
            }
            // Only the two above ever wait on a guard; anything else is
            // handled where it arrives and has nothing left to wait for.
            _ => true,
        }
    }

    /// Takes a reliably-delivered ack through its origin's stream:
    /// rebuilds it from the origin's previous ack unless it is full (or
    /// leaves it waiting), absorbs it or parks it on the round guard, and
    /// goes on with the origin's acks that waited for this one. An ack
    /// waits for its predecessor, and for the batches it names: whatever
    /// it waits for, the set it is to be rebuilt from stays kept for it.
    fn on_ack_delivered(&mut self, origin: ProcessId, mut tag: u64, mut rec: AckRecord<V>) {
        let head = self.ack_heads.get(&origin).filter(|head| head.0 == tag);
        let at_head = head.is_some();
        let mut base = match head {
            Some(head) => Some(head.1.clone()),
            None => self.ack_bases.get(&(origin, tag)).cloned(),
        };
        // Whether `base` is the one kept for `tag` already.
        let mut kept = true;
        loop {
            let added = (rec.full || base.is_some()).then(|| self.resolve(&rec.accepted));
            let Some(added) = added.flatten() else {
                self.ack_waiting.insert((origin, tag), rec);
                break;
            };
            if kept {
                self.ack_bases.remove(&(origin, tag));
            }
            let rebuilt = match &base {
                Some(prev) if !rec.full => self.rebuild_ack(prev, &rec, added),
                _ => Some(self.held_or(&rec, added)),
            };
            let Some(accepted) = rebuilt else {
                if at_head {
                    self.ack_heads.remove(&origin);
                }
                return; // no record: what follows waits for a full one
            };
            let ack = Ack {
                round: rec.round,
                ts: rec.ts,
                destination: rec.destination,
                accepted,
            };
            if !self.try_absorb_ack(origin, &ack) {
                self.pending_acks.push((origin, ack.clone()));
            }
            let Some(next) = tag.checked_add(1) else {
                return;
            };
            (tag, base, kept) = (next, Some(ack.accepted), false);
            let Some(waiting) = self.ack_waiting.remove(&(origin, tag)) else {
                break;
            };
            rec = waiting;
        }
        if let (Some(set), false) = (base, kept) {
            self.keep_ack_base(origin, tag, set, at_head);
        }
    }

    /// Whether the origin's waiting ack `tag` can be rebuilt now.
    fn rebuildable(&self, origin: ProcessId, tag: u64, rec: &AckRecord<V>) -> bool {
        let has_base = || {
            self.ack_heads
                .get(&origin)
                .is_some_and(|head| head.0 == tag)
                || self.ack_bases.contains_key(&(origin, tag))
        };
        (rec.full || has_base()) && self.resolves(&rec.accepted)
    }

    /// The set of an ack that adds `added` to `prev`; `None` if they
    /// overlap (one rule for all keeps rebuilt acks identical everywhere).
    /// A process that consumed the request the ack answers holds the set
    /// it must rebuild to: confirming that allocates nothing, and shares
    /// one handle among the acks of a proposal.
    fn rebuild_ack(
        &self,
        prev: &ValueSet<V>,
        rec: &AckRecord<V>,
        added: ValueSet<V>,
    ) -> Option<ValueSet<V>> {
        if let Some(held) = self.delta_rx.base(rec.destination, rec.ts) {
            if held.is_disjoint_union(prev, &added) {
                return Some(held.clone());
            }
        }
        let set = prev.join(&added);
        (set.len() == prev.len() + added.len()).then_some(set)
    }

    /// `set`, the whole set of the full record `rec`, as the handle of the
    /// request it answers where this process consumed it.
    fn held_or(&self, rec: &AckRecord<V>, set: ValueSet<V>) -> ValueSet<V> {
        match self.delta_rx.base(rec.destination, rec.ts) {
            Some(held) if *held == set => held.clone(),
            _ => set,
        }
    }

    /// Whether the origin's ack `tag` is delivered and no longer waits:
    /// nothing is to be rebuilt from a set kept for it any more.
    fn went(&self, origin: ProcessId, tag: u64) -> bool {
        self.rb_ack.has_delivered(origin, tag) && !self.ack_waiting.contains_key(&(origin, tag))
    }

    /// Keeps `set`, just rebuilt, for its origin's ack `next`. The newest
    /// such set is the origin's head; the head it replaces stays a base
    /// unless this chain started from it. Below the head, `set` is only
    /// kept while `next` is to come (a full `next` went ahead without it).
    fn keep_ack_base(&mut self, origin: ProcessId, next: u64, set: ValueSet<V>, from_head: bool) {
        match self.ack_heads.get(&origin) {
            Some(head) if next <= head.0 => {
                if next < head.0 && !self.went(origin, next) {
                    self.ack_bases.insert((origin, next), set);
                }
            }
            Some(head) if !from_head => {
                let keep = !self.went(origin, head.0);
                if let Some((tag, overtaken)) = self.ack_heads.insert(origin, (next, set)) {
                    if keep {
                        self.ack_bases.insert((origin, tag), overtaken);
                    }
                }
            }
            _ => {
                self.ack_heads.insert(origin, (next, set));
            }
        }
    }

    /// Absorbs a rebuilt ack record if trusted; `true` if consumed.
    fn try_absorb_ack(&mut self, origin: ProcessId, rec: &Ack<V>) -> bool {
        if rec.round > self.safe_r {
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
        // was full, or went the same way just before. Whatever was kept to
        // rebuild it from goes with it.
        let mut gone = None;
        let mut dead = Vec::new();
        for (&(origin, tag), rec) in self.ack_waiting.iter().rev() {
            let next = (origin, tag.wrapping_add(1));
            let settled = gone == Some(next)
                || match self.ack_waiting.get(&next) {
                    Some(waiting) => waiting.full,
                    None => self.rb_ack.has_delivered(origin, next.1),
                };
            if rec.round < keep_from && settled {
                gone = Some((origin, tag));
                dead.push((origin, tag));
            }
        }
        for (origin, tag) in dead {
            self.ack_waiting.remove(&(origin, tag));
            self.ack_bases.remove(&(origin, tag));
            if self
                .ack_heads
                .get(&origin)
                .is_some_and(|head| head.0 == tag)
            {
                self.ack_heads.remove(&origin);
            }
        }
    }

    /// Retained ack-history size (diagnostics: pruning keeps it bounded).
    pub fn ack_history_len(&self) -> usize {
        self.ack_history.values().map(BTreeMap::len).sum()
    }

    /// Acks waiting for earlier ones of their origin or for the batches
    /// they name (diagnostics: an old one goes as soon as nothing can be
    /// rebuilt from it any more).
    pub fn ack_waiting_len(&self) -> usize {
        self.ack_waiting.len()
    }

    /// Everything parked on a guard: requests and refusals, acks waiting
    /// to be rebuilt, and rebuilt acks waiting for their round to be
    /// trusted (diagnostics: a finished honest run leaves none).
    pub fn parked_len(&self) -> usize {
        self.waiting.len() + self.ack_waiting.len() + self.pending_acks.len()
    }

    /// Retries the parked messages until none is admissible. Call after a
    /// guard input moved (see [`Self::guards`]); at any other time every
    /// parked message would fail the guard it failed before. `tried` is
    /// how many batches were delivered when the waiting acks were last
    /// tried: only a delivered batch lets one of them be rebuilt.
    fn drain_waiting(&mut self, ctx: &mut Context<GwtsMsg<V>>, mut tried: usize) {
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
                if self.try_absorb_ack(origin, &rec) {
                    progressed = true;
                } else {
                    self.pending_acks.push((origin, rec));
                }
            }
            // Acks that named a batch not delivered here before.
            if tried != self.disclosed.len() {
                tried = self.disclosed.len();
                let ready: Vec<(ProcessId, u64)> = (self.ack_waiting.iter())
                    .filter(|(&(origin, tag), rec)| self.rebuildable(origin, tag, rec))
                    .map(|(&at, _)| at)
                    .collect();
                for (origin, tag) in ready {
                    if let Some(rec) = self.ack_waiting.remove(&(origin, tag)) {
                        self.on_ack_delivered(origin, tag, rec);
                        progressed = true;
                    }
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
        let Self {
            config,
            me,
            input_schedule,
            max_rounds,
            state,
            round,
            ts,
            rb_disc,
            rb_ack,
            next_ack_tag,
            last_acked,
            ack_delta_bytes,
            acked_rounds,
            ack_heads,
            ack_bases,
            ack_waiting,
            batches,
            disclosed,
            // Derived: rebuilt from `disclosed` by decode.
            named_by: _,
            counters,
            proposed_set,
            accepted_set,
            safe_r,
            ack_history,
            committed_rounds,
            waiting,
            pending_acks,
            decided_set,
            // Sender watermarks are peer-relative; a restarted process resumes in full-set mode by
            // design.
            delta_tx: _,
            // Delta bases are peer-relative; a restarted process resumes in full-set mode by
            // design.
            delta_rx: _,
            // Boot flag: decode sets it true to mark a recovered process.
            recovered: _,
            decisions,
            decision_depths,
            refinements,
            all_inputs,
        } = self;
        config.encode(w);
        w.usize(*me);
        input_schedule.encode(w);
        w.var(*max_rounds);
        state.encode(w);
        w.var(*round);
        w.var(*ts);
        rb_disc.encode(w);
        rb_ack.encode(w);
        w.var(*next_ack_tag);
        last_acked.encode(w);
        w.usize(*ack_delta_bytes);
        acked_rounds.encode(w);
        ack_heads.encode(w);
        ack_bases.encode(w);
        ack_waiting.encode(w);
        batches.encode(w);
        disclosed.encode(w);
        counters.encode(w);
        proposed_set.encode(w);
        accepted_set.encode(w);
        w.var(*safe_r);
        ack_history.encode(w);
        committed_rounds.encode(w);
        waiting.encode(w);
        pending_acks.encode(w);
        decided_set.encode(w);
        decisions.encode(w);
        decision_depths.encode(w);
        refinements.encode(w);
        all_inputs.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut p = GwtsProcess {
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
            disclosed: Wire::decode(r)?,
            named_by: BTreeMap::new(),
            counters: Wire::decode(r)?,
            proposed_set: Wire::decode(r)?,
            accepted_set: Wire::decode(r)?,
            safe_r: r.var()?,
            ack_history: Wire::decode(r)?,
            committed_rounds: Wire::decode(r)?,
            waiting: Wire::decode(r)?,
            pending_acks: Wire::decode(r)?,
            decided_set: Wire::decode(r)?,
            delta_tx: DeltaSender::default(),
            delta_rx: DeltaReceiver::default(),
            recovered: true,
            decisions: Wire::decode(r)?,
            decision_depths: Wire::decode(r)?,
            refinements: Wire::decode(r)?,
            all_inputs: Wire::decode(r)?,
        };
        for (name, batch) in std::mem::take(&mut p.disclosed) {
            p.disclose(name, batch);
        }
        Ok(p)
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
            self.drain_waiting(ctx, usize::MAX);
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
                    *self.counters.entry(d.tag).or_insert(0) += 1;
                    if self.state == GwtsState::Disclosing {
                        self.proposed_set.join_with(&d.value);
                    }
                    self.disclose((d.origin, d.tag), d.value);
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
            self.drain_waiting(ctx, before.0);
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
            proposed: SetUpdate::Full(NamedSet::default()),
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
            accepted: NamedSet::default(),
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
            accepted: NamedSet::default(),
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

    /// A fresh process to which every value below 10 000 is SAFE: one
    /// disclosed batch holds them all, and no ack holds it whole, so the
    /// records of these tests spell their values out.
    fn process(me: ProcessId) -> GwtsProcess<u64> {
        let mut p = GwtsProcess::new(me, SystemConfig::new(4, 1), BTreeMap::new(), 12);
        p.disclose((3, 0), (0..10_000).collect());
        p
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
            accepted: vs(accepted).into(),
        }
    }

    /// One round's ack history holding `set`, acked by [`ORIGIN`] alone.
    fn by_origin(set: &[u64]) -> BTreeMap<ValueSet<u64>, BTreeSet<ProcessId>> {
        BTreeMap::from([(vs(set), BTreeSet::from([ORIGIN]))])
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
        let mut got: Vec<_> = (rx.pending_acks.iter())
            .map(|(_, ack)| AckRecord {
                round: ack.round,
                ts: ack.ts,
                destination: ack.destination,
                full: true,
                accepted: ack.accepted.clone().into(),
            })
            .collect();
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
                (meant.full, meant.accepted) = (true, origin.accepted_set.clone().into());
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

    /// Reliably delivers the disclosure `batch` of `(origin, round)` at
    /// `rx`.
    pub(super) fn disclose_at(
        rx: &mut GwtsProcess<u64>,
        (origin, round): BatchName,
        batch: &ValueSet<u64>,
    ) {
        let mut ctx = Context::for_embedding(rx.me, 4, 0, 0);
        for from in 1..=3 {
            let (tag, value) = (round, batch.clone());
            rx.on_message(
                from,
                GwtsMsg::Disc(RbMsg::Ready { origin, tag, value }),
                &mut ctx,
            );
        }
    }

    /// The stream of an acceptor whose acks name what they add: deliveries
    /// of its acks and of the disclosures they name interleave at random,
    /// so acks arrive before their batches. Each ack is rebuilt exactly
    /// once — none lost while it waits for a batch, none twice — and
    /// nothing stays parked.
    #[test]
    fn ack_stream_reassembles_every_permutation_with_late_disclosures() {
        let seeds = if cfg!(debug_assertions) { 48 } else { 512 };
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            // Batches of 1–3 values, rounds 1..=12 of proposers 0..4.
            let batches: Vec<(BatchName, ValueSet<u64>)> = (0..4)
                .flat_map(|o| (1..=12).map(move |r| (o, r)))
                .map(|(o, r)| {
                    let len = rng.gen_range(1..4u64);
                    (
                        (o, r),
                        (0..len).map(|k| o as u64 * 1_000 + r * 10 + k).collect(),
                    )
                })
                .collect();
            let mut origin = GwtsProcess::new(ORIGIN, SystemConfig::new(4, 1), BTreeMap::new(), 12);
            for (name, batch) in &batches {
                origin.disclose(*name, batch.clone());
            }
            let mut order: Vec<usize> = (0..batches.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut accepted = order.into_iter();
            let records: Vec<(AckRecord<u64>, AckRecord<u64>)> = (0..32)
                .map(|ts| {
                    for k in accepted.by_ref().take(rng.gen_range(0..3usize)) {
                        origin.accepted_set.join_with(&batches[k].1);
                    }
                    let sent = origin.next_ack(2, ts, ROUND);
                    let mut meant = sent.clone();
                    (meant.full, meant.accepted) = (true, origin.accepted_set.clone().into());
                    (sent, meant)
                })
                .collect();
            assert!(records
                .iter()
                .any(|(sent, _)| !sent.accepted.names().is_empty()));
            // Acks (`Ok`) and disclosures (`Err`), shuffled together.
            let mut steps: Vec<Result<usize, usize>> = (0..records.len())
                .map(Ok)
                .chain((0..batches.len()).map(Err))
                .collect();
            for i in (1..steps.len()).rev() {
                steps.swap(i, rng.gen_range(0..i + 1));
            }
            let mut rx = GwtsProcess::new(0, SystemConfig::new(4, 1), BTreeMap::new(), 12);
            for step in steps {
                match step {
                    Ok(k) => deliver(&mut rx, k as u64, &records[k].0),
                    Err(k) => disclose_at(&mut rx, batches[k].0, &batches[k].1),
                }
            }
            let want: Vec<_> = records.iter().map(|(_, meant)| meant.clone()).collect();
            assert_eq!(rebuilt(&rx), want, "seed {seed}");
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
        assert_eq!(rebuilt(&rx), []);
        // Its round is trusted now: record 1 is rebuilt into the history,
        // once, and into nothing else.
        deliver(&mut rx, 1, &record(false, 1, &[2]));
        assert_eq!(rebuilt(&rx), []);
        assert_eq!(rx.ack_history[&ROUND], by_origin(&[1, 2]));
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
        assert_eq!(rebuilt(&rx), []);
        deliver(&mut rx, 1, &in_round(1, record(false, 1, &[2])));
        assert_eq!(rebuilt(&rx), []);
        assert_eq!(rx.ack_history[&5], by_origin(&[1, 2, 3, 4]));
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
            proposed: SetUpdate::Full(proposed.clone().into()),
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
mod named_set_tests {
    use super::ack_stream_tests::{deliver_from as deliver, disclose_at, vs};
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn process() -> GwtsProcess<u64> {
        GwtsProcess::new(0, SystemConfig::new(4, 1), BTreeMap::new(), 12)
    }

    /// Whatever was disclosed — batches sharing values, one-value batches,
    /// names longer than the values they stand for — a set costs at most
    /// one byte more named than spelled out, and resolves to itself.
    #[test]
    fn a_named_set_costs_at_most_one_byte_more_and_resolves_to_itself() {
        assert_eq!(
            NamedSet::<u64>::default().wire_size(),
            ValueSet::<u64>::new().wire_size() + 1
        );
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = process();
            for k in 0..24u64 {
                let round = if k % 5 == 0 { u64::MAX - k } else { k };
                let len = rng.gen_range(1..6usize);
                let batch = (0..len).map(|_| rng.gen_range(0..40u64)).collect();
                p.disclose((rng.gen_range(0..4usize), round), batch);
            }
            for _ in 0..32 {
                let set: ValueSet<u64> = match rng.gen_range(0..3u8) {
                    // Whole batches,
                    0 => (p.disclosed.values())
                        .filter(|_| rng.gen_bool(0.3))
                        .fold(ValueSet::new(), |set, batch| set.join(batch)),
                    // disclosed values,
                    1 => (0..rng.gen_range(0..30usize))
                        .map(|_| rng.gen_range(0..40u64))
                        .collect(),
                    // and values no batch holds.
                    _ => (0..rng.gen_range(0..30usize))
                        .map(|_| rng.gen_range(0..80u64))
                        .collect(),
                };
                let named = p.name(&set);
                assert!(
                    named.wire_size() <= set.wire_size() + 1,
                    "seed {seed}: {set:?}"
                );
                let safe = set.iter().all(|v| p.named_by.contains_key(v));
                assert_eq!(p.resolve(&named), safe.then_some(set), "seed {seed}");
            }
        }
    }

    /// An ack that names a batch not delivered here waits, and stays the
    /// base its origin's next ack is rebuilt from, however old its round
    /// gets: pruned with its round, it would cost that origin its votes
    /// until its next full record.
    #[test]
    fn an_ack_naming_an_undelivered_batch_waits_and_stays_a_base() {
        let mut rx = process();
        let batch = vs(&[5, 6]);
        let named = NamedSet::new([(2, 1)].into(), ValueSet::new());
        let rec = |ts, full, accepted| AckRecord {
            round: 1,
            ts,
            destination: 3,
            full,
            accepted,
        };
        disclose_at(&mut rx, (3, 0), &vs(&[7]));
        deliver(&mut rx, 1, 0, &rec(0, true, named));
        deliver(&mut rx, 1, 1, &rec(1, false, vs(&[7]).into()));
        assert_eq!(rx.ack_waiting_len(), 2);
        (rx.round, rx.safe_r) = (5, 5);
        rx.prune_old_rounds();
        assert_eq!(rx.ack_waiting_len(), 2, "pruned what the next ack needs");
        disclose_at(&mut rx, (2, 1), &batch);
        assert_eq!(rx.ack_waiting_len(), 0);
        assert_eq!(rx.ack_heads[&1], (2, vs(&[5, 6, 7])));
        let decoded = decode_payload_of(&rx);
        assert_eq!(decoded.ack_heads[&1], (2, vs(&[5, 6, 7])));
    }

    fn decode_payload_of(p: &GwtsProcess<u64>) -> GwtsProcess<u64> {
        GwtsProcess::from_snapshot(&p.snapshot_bytes()).expect("restores")
    }

    /// A request that names a batch not delivered here parks on the guard
    /// an unsafe request always parked on, and is answered once the batch
    /// is delivered.
    #[test]
    fn a_request_naming_an_undelivered_batch_parks_until_it_is_delivered() {
        let mut p = process();
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        let proposed = SetUpdate::Full(NamedSet::new([(2, 0)].into(), ValueSet::new()));
        let request = GwtsMsg::AckReq {
            proposed,
            ts: 1,
            round: 0,
        };
        p.on_message(2, request, &mut ctx);
        assert_eq!((p.waiting.len(), ctx.take_outbox().len()), (1, 0));
        // A snapshot keeps the batches by name, and what parked.
        let mut p = decode_payload_of(&p);
        disclose_at(&mut p, (2, 0), &vs(&[4, 9]));
        assert!(p.waiting.is_empty());
        assert_eq!(p.accepted_set, vs(&[4, 9]));
        assert_eq!(p.name(&vs(&[4, 9])).names(), [(2, 0)]);
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
        let proposed = SetUpdate::Full(vs(set).into());
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
                GwtsMsg::Nack { accepted, .. } => {
                    nacks.push((to, p.resolve(&accepted).expect("SAFE")));
                }
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
            (false, vs(&[3]).into(), 0)
        );
        // The same set in a round it was not said for: said (nothing new).
        p.safe_r = 1;
        let (said, _) = request(&mut p, &mut ctx, 1, (&[1, 2, 3], 3, 1));
        assert_eq!(
            said.map(|rec| (rec.round, rec.accepted)),
            Some((1, NamedSet::default()))
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
            (true, vs(&[1, 2]).into(), 0)
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
        let (accepted, ts, round) = (NamedSet::default(), 1, 0);
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
        let (accepted, ts, round) = (NamedSet::default(), 9, 9);
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
            accepted: vs(accepted).into(),
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
            let set = tap.inner.resolve(&rec.accepted).expect("delivered");
            held[origin] = set.len() + if rec.full { 0 } else { held[origin] };
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

#[cfg(test)]
mod acceptor_tests {
    use super::ack_stream_tests::vs;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Values below this are SAFE at [`acceptor`].
    const VALUES: u64 = 48;
    /// The rounds requests are for: all trusted, so repeats get receipts.
    const ROUNDS: u64 = 3;

    /// Process 0 of four, trusting rounds up to [`ROUNDS`], to which every
    /// value below [`VALUES`] is SAFE: one disclosed batch holds them all.
    fn acceptor() -> GwtsProcess<u64> {
        let mut p = GwtsProcess::new(0, SystemConfig::new(4, 1), BTreeMap::new(), 12);
        p.disclose((3, 0), (0..VALUES).collect());
        p.safe_r = ROUNDS;
        p
    }

    /// What `p` did with a request: whether it broadcast an ack, and the
    /// nacks it sent, resolved.
    fn hand(
        p: &mut GwtsProcess<u64>,
        from: ProcessId,
        proposed: SetUpdate<ValueSet<u64>>,
        ts: u64,
        round: u64,
    ) -> (bool, Vec<ValueSet<u64>>) {
        let mut ctx = Context::for_embedding(0, 4, 0, 0);
        let proposed = proposed.map(NamedSet::from);
        let request = GwtsMsg::AckReq {
            proposed,
            ts,
            round,
        };
        p.on_message(from, request, &mut ctx);
        let (mut said, mut nacks) = (false, Vec::new());
        for (to, msg) in ctx.take_outbox() {
            match msg {
                GwtsMsg::Ack(RbMsg::Init { .. }) => said = true,
                GwtsMsg::Nack { accepted, .. } if to == from => {
                    nacks.push(p.resolve(&accepted).expect("SAFE"));
                }
                other => panic!("unexpected {other:?} to {to}"),
            }
        }
        (said, nacks)
    }

    /// `k` values drawn below [`VALUES`].
    fn draw(rng: &mut StdRng, k: u64) -> BTreeSet<u64> {
        (0..k).map(|_| rng.gen_range(0..VALUES)).collect()
    }

    /// Random full and delta requests from three proposers, each delta
    /// against a base the acceptor recorded for its sender: the verdict,
    /// `accepted_set`, the recorded base and the refusal are what the walk
    /// over the whole proposal, `accepted ⊆ base ∪ added`, says they are.
    #[test]
    fn acceptor_verdicts_match_the_walk_oracle() {
        let (seeds, steps) = if cfg!(debug_assertions) {
            (24, 160)
        } else {
            (256, 400)
        };
        let mut seen = [0usize; 4];
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = acceptor();
            let mut accepted: BTreeSet<u64> = BTreeSet::new();
            // The set last acked, and the rounds it was said for.
            let (mut last_acked, mut acked_rounds) = (BTreeSet::new(), BTreeSet::new());
            // Every proposal recorded, by (proposer, ts).
            let mut proposals: BTreeMap<(ProcessId, u64), BTreeSet<u64>> = BTreeMap::new();
            let mut next_ts = [0u64; 4];
            for step in 0..steps {
                let from = rng.gen_range(1..4usize);
                next_ts[from] += 1;
                let (ts, round) = (next_ts[from], rng.gen_range(0..ROUNDS + 1));
                let held: Vec<u64> = (proposals.range((from, 0)..(from, ts)))
                    .map(|(&(_, at), _)| at)
                    .filter(|&at| p.delta_rx.base(from, at).is_some())
                    .collect();
                let base_ts = (!held.is_empty() && rng.gen_bool(0.7))
                    .then(|| held[rng.gen_range(0..held.len())]);
                let base = base_ts.map_or_else(BTreeSet::new, |at| proposals[&(from, at)].clone());
                // Half the time, catch up with what is accepted.
                let k = rng.gen_range(0..4);
                let mut added = draw(&mut rng, k);
                if rng.gen_bool(0.5) {
                    added.extend(accepted.difference(&base));
                }
                let full: BTreeSet<u64> = base.union(&added).copied().collect();
                let acked = accepted.is_subset(&full);
                let update = match base_ts {
                    Some(base_ts) => SetUpdate::Delta {
                        base_ts,
                        added: ValueSet::from(added),
                    },
                    None => SetUpdate::Full(ValueSet::from(full.clone())),
                };
                let (said, nacks) = hand(&mut p, from, update, ts, round);
                let at = format!("seed {seed} step {step}");
                if acked {
                    // Said once per round and set, else a receipt.
                    if full != last_acked {
                        acked_rounds.clear();
                    }
                    let says = acked_rounds.insert(round);
                    if says {
                        last_acked = full.clone();
                    }
                    let receipt = (!says).then(ValueSet::new);
                    assert_eq!((said, nacks), (says, Vec::from_iter(receipt)), "{at}");
                    seen[usize::from(said)] += 1;
                } else {
                    let lacked: ValueSet<u64> = accepted.difference(&full).copied().collect();
                    assert_eq!((said, nacks), (false, vec![lacked]), "{at}: refused");
                    seen[2 + usize::from(base_ts.is_some())] += 1;
                }
                accepted = match acked {
                    true => full.clone(),
                    false => accepted.union(&full).copied().collect(),
                };
                assert_eq!(p.accepted_set, ValueSet::from(accepted.clone()), "{at}");
                assert_eq!(
                    p.delta_rx.base(from, ts),
                    Some(&ValueSet::from(full.clone())),
                    "{at}"
                );
                proposals.insert((from, ts), full);
            }
        }
        // Receipts, broadcasts, full and delta refusals all came up.
        assert!(seen.iter().all(|&count| count > 0), "{seen:?}");
    }

    /// A delta request that adds nothing the acceptor lacks and lacks
    /// nothing it holds is its accepted set: recorded as that handle,
    /// no set built.
    #[test]
    fn a_request_equal_to_the_accepted_set_builds_nothing() {
        let mut p = acceptor();
        let full = |set: &[u64]| SetUpdate::Full(vs(set));
        assert!(hand(&mut p, 1, full(&[1, 2, 3]), 1, 0).0);
        assert!(hand(&mut p, 2, full(&[1, 2, 3, 4]), 1, 0).0);
        let delta = SetUpdate::Delta {
            base_ts: 1,
            added: vs(&[2, 4]),
        };
        let (said, nacks) = hand(&mut p, 1, delta, 2, 0);
        assert_eq!((said, nacks), (false, vec![ValueSet::new()]), "a receipt");
        let recorded = p.delta_rx.base(1, 2).unwrap();
        assert!(recorded.ptr_eq(&p.accepted_set));
        assert_eq!(p.accepted_set, vs(&[1, 2, 3, 4]));
    }
}
