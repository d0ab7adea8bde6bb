//! Delta-encoded, **proof-by-reference** payloads for proof-carrying
//! messages — [`SetUpdate`] lifted to proven-record sets.
//!
//! # Why
//!
//! Proofs of safety dominate SbS/GSbS wire cost: `O(n²)` signature bytes
//! per proof, re-shipped in full on every refinement round, every nack
//! and every re-broadcast, even though the receiver usually verified the
//! very same proof moments earlier. Two observations make almost all of
//! that traffic redundant:
//!
//! * proven sets grow monotonically, so consecutive proposals to the
//!   same peer differ by a few records ([`SetUpdate`]'s insight), and
//! * proofs are content-addressed ([`bgla_crypto::ProofId`]), so a proof
//!   the peer *demonstrably holds* can be named by its 16-byte id instead
//!   of re-shipped.
//!
//! [`ProvenUpdate`] combines both: `Full` ships everything inline;
//! `Delta` ships only the records added since a base the receiver
//! replied to, with proofs the receiver already holds referenced by id.
//!
//! # Which proofs a peer holds — the reference discipline
//!
//! *Which set* a peer holds is the delta ledger's business, stated once
//! in [`crate::valueset`]: a reply to timestamp `t` is the evidence for
//! `snapshot(t)`, and a consumed proposal stays a base for a window of
//! timestamps. [`ProvenDeltaSender`] and [`ProvenDeltaReceiver`] wrap
//! that ledger and add only *which proofs*:
//! a sender may reference a proof to a peer only when that peer
//! *demonstrably* delivered it:
//!
//! * **ack/nack replies** — a peer that replied to the proposal of
//!   timestamp `t` consumed it, verified its proofs and registered them
//!   in its [`ProofResolver`]; every proof in the `t` snapshot becomes
//!   referenceable ([`ProvenDeltaSender::record_reply`]);
//! * **received proven sets** — a peer that shipped (or itself
//!   referenced) a proof inside a nack evidently holds it
//!   ([`ProvenDeltaSender::note_peer_holds`]), so the very proofs a
//!   refinement just absorbed from a nacker can travel back to that
//!   nacker as references on the re-broadcast — the dominant saving on
//!   refinement-heavy runs.
//!
//! Note what is *not* enough: an acceptor whose safe-ack ended up inside
//! a proof has never seen the other quorum members' acks, so signing a
//! safe-ack does **not** imply holding the assembled proof — references
//! are seeded from replies and received sets only.
//!
//! Receivers mirror the discipline: [`ProvenDeltaReceiver::record`]
//! notes, per proposer, the proof ids that proposer evidently holds (so
//! *reply* traffic — the delta-encoded `Nack.accepted` — can reference
//! the proposer's own proofs back at it via
//! [`ProvenDeltaReceiver::encode_reply`]). A nack deltas against the
//! proposal it refuses, which the proposer holds by construction
//! ([`ProvenDeltaSender::resolve_reply`] resolves it from the
//! sender-side snapshots).
//!
//! # Gaps and resync
//!
//! Reconstruction fails — a **delta gap** — when the named base or a
//! referenced [`ProofId`] is unknown. Unlike WTS value deltas (where a
//! gap proves the sender Byzantine and the message is simply dropped), a
//! proof reference can also outlive the receiver's bounded
//! [`ProofResolver`] window, so the receiver answers an unresolvable
//! *proposal* with a resync request and the proposer falls back to
//! `Full` (`SbsMsg::Resync` / `GsbsMsg::Resync`). Correct senders never
//! cause gaps within the retention windows, so honest-to-honest traffic
//! never resyncs; Byzantine senders can trigger the fallback at will but
//! only waste their own messages. A gap in a *reply* (nack) still is a
//! reliable Byzantine signal: the nack deltas against the receiving
//! proposer's own snapshot and references only proofs that proposer
//! itself shipped, both of which the proposer retains.
//!
//! # Wire format
//!
//! A payload says each proof once, as a proof says each echo once: a
//! table of the proofs first, then the records without their proofs,
//! each with an index into the table.
//!
//! ```text
//! payload : 0                     (the whole set)
//!         | 1 | var(base_ts)      (the records added since base_ts)
//!           var(#inline) | proof…  each distinct inline proof once, in
//!                                  first-use order
//!           var(#refs)   | id…     each proof the receiver holds, by its
//!                                  16-byte ProofId, strictly ascending
//!           var(#records)| (var(index) | record without its proof)…
//!                                  strictly ascending; the index points
//!                                  into the inline proofs, then the refs
//! ```
//!
//! The decoder refuses an index past the table, a table entry used by no
//! record or listed twice, inline proofs out of first-use order, refs out
//! of order or naming an inline proof, and records out of order, so a
//! payload has exactly one encoding. A referenced proof never travels:
//! the receiver attaches its own copy from its [`ProofResolver`] when it
//! resolves the payload, or reports the gap. Records that share an inline
//! proof share one decoded handle of it, hashed once; as a proof's echo,
//! each use after the first is charged to the reader
//! ([`Reader::reuse`]), since every record walks its proof's acks when
//! checked. A reference is not charged: it resolves only to a proof the
//! receiver itself verified.

use crate::proof::{Proof, ProofAck};
use crate::valueset::{DeltaReceiver, DeltaSender, SetItem, SetUpdate, ValueSet};
use bgla_codec::{CodecError, Reader, Wire, Writer};
use bgla_crypto::{ProofId, ProofResolver};
use bgla_simnet::ProcessId;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// A signed record carrying an attached proof of safety — the element
/// type [`ProvenUpdate`] deltas over (SbS `ProvenValue`, GSbS
/// `ProvenBatch`).
///
/// `Ord`/`Eq` must ignore the attached proof — the record is the same
/// lattice element regardless of which quorum certified it, so
/// [`SetItem::EQ_IS_IDENTITY`] is `false` — and order records as their
/// [`Self::Signed`] parts do, which is the order a payload ships them in.
pub trait ProvenRecord: SetItem {
    /// The ack type of the attached proof.
    type Ack: ProofAck;

    /// The plain values a record carries.
    type Value: SetItem;

    /// The record without its proof: what a payload ships per record.
    type Signed: SetItem + std::fmt::Debug;

    /// The values this record carries.
    fn values(&self) -> &[Self::Value];

    /// The attached proof of safety.
    fn proof(&self) -> &Proof<Self::Ack>;

    /// The record without its proof.
    fn signed(&self) -> &Self::Signed;

    /// The record `signed` with `proof` attached.
    fn proven(signed: Self::Signed, proof: Proof<Self::Ack>) -> Self;
}

/// A proven-set payload: the full set, or only the records added since a
/// base the receiver holds, with already-held proofs by reference. See
/// the module docs for semantics and the wire format.
///
/// `Full` and `Delta` name a payload by its records; the wire carries
/// every payload as a [`ProvenTable`], which is also what the delta
/// ledgers build and what decoding yields — so a simulated receiver is
/// handed exactly what a socket delivers.
#[derive(Debug, Clone)]
pub enum ProvenUpdate<T: ProvenRecord> {
    /// The whole set, every distinct proof inline (first contact or
    /// resync fallback).
    Full(ValueSet<T>),
    /// The additions relative to the set this receiver consumed at
    /// `base_ts`, with proofs the receiver holds referenced by id.
    Delta {
        /// Timestamp of the base set the receiver already holds.
        base_ts: u64,
        /// `current ∖ base` — a record's proof ships inline unless its
        /// id appears in `refs`.
        new: ValueSet<T>,
        /// Ids (among `new`'s proofs) the receiver is assumed to hold.
        /// An id no record of `new` carries is not shipped.
        refs: Vec<ProofId>,
    },
    /// The payload as the wire carries it.
    Table(ProvenTable<T>),
}

impl<T: ProvenRecord> ProvenUpdate<T> {
    /// This payload as the wire carries it.
    pub fn table(&self) -> Cow<'_, ProvenTable<T>> {
        match self {
            ProvenUpdate::Full(set) => Cow::Owned(ProvenTable::new(None, set, |_| false)),
            ProvenUpdate::Delta { base_ts, new, refs } => {
                Cow::Owned(ProvenTable::new(Some(*base_ts), new, |id| {
                    refs.contains(id)
                }))
            }
            ProvenUpdate::Table(table) => Cow::Borrowed(table),
        }
    }

    /// Whether this payload is a delta against a base.
    pub fn is_delta(&self) -> bool {
        match self {
            ProvenUpdate::Full(_) => false,
            ProvenUpdate::Delta { .. } => true,
            ProvenUpdate::Table(table) => table.base_ts.is_some(),
        }
    }
}

/// Every payload encodes as its [`ProvenTable`], and decodes to one.
impl<T: ProvenRecord> Wire for ProvenUpdate<T> {
    fn encode(&self, w: &mut Writer) {
        self.table().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ProvenUpdate::Table(ProvenTable::decode(r)?))
    }
}

/// Proven records as the wire carries them: each distinct proof once,
/// and each record without its proof but with the index of its proof
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct ProvenTable<T: ProvenRecord> {
    /// `None` for the whole set; `Some(ts)` for the records added since
    /// the set the receiver consumed at `ts`.
    base_ts: Option<u64>,
    /// The proofs shipped inline, each once, in first-use order.
    proofs: Vec<Proof<T::Ack>>,
    /// The ids of the proofs the receiver holds, strictly ascending.
    refs: Vec<ProofId>,
    /// The records without their proofs, strictly ascending, each with
    /// the index of its proof in `proofs` followed by `refs`.
    records: Vec<(usize, T::Signed)>,
}

impl<T: ProvenRecord> ProvenTable<T> {
    /// `records` with every proof `held` says the receiver holds by
    /// reference and the others inline.
    pub fn new(
        base_ts: Option<u64>,
        records: &ValueSet<T>,
        held: impl Fn(&ProofId) -> bool,
    ) -> Self {
        let (refs, inline): (BTreeSet<ProofId>, BTreeSet<ProofId>) = records
            .iter()
            .map(|r| r.proof().id())
            .partition(|id| held(id));
        let refs: Vec<ProofId> = refs.into_iter().collect();
        let mut proofs = Vec::with_capacity(inline.len());
        let mut at: BTreeMap<ProofId, usize> = BTreeMap::new();
        let records = records
            .iter()
            .map(|r| {
                let proof = r.proof();
                let index = match refs.binary_search(&proof.id()) {
                    Ok(k) => inline.len() + k,
                    Err(_) => *at.entry(proof.id()).or_insert_with(|| {
                        proofs.push(proof.clone());
                        proofs.len() - 1
                    }),
                };
                (index, r.signed().clone())
            })
            .collect();
        ProvenTable {
            base_ts,
            proofs,
            refs,
            records,
        }
    }

    /// `None` for the whole set; `Some(ts)` for the records added since
    /// the set the receiver consumed at `ts`.
    pub fn base_ts(&self) -> Option<u64> {
        self.base_ts
    }

    /// The ids of the proofs shipped by reference.
    pub fn refs(&self) -> &[ProofId] {
        &self.refs
    }

    /// The records without their proofs, in ascending order, each with
    /// its proof if that travels inline (`None`: by reference).
    pub fn records(&self) -> impl Iterator<Item = (&T::Signed, Option<&Proof<T::Ack>>)> {
        self.records
            .iter()
            .map(|(index, signed)| (signed, self.proofs.get(*index)))
    }

    /// The records with their proofs attached: an inline proof from the
    /// table, a referenced one from `resolver`. `None` is a gap: a
    /// referenced id the resolver does not hold.
    fn attach(&self, resolver: &mut ProofResolver<Proof<T::Ack>>) -> Option<ValueSet<T>> {
        let mut out = Vec::with_capacity(self.records.len());
        for (index, signed) in &self.records {
            let proof = match self.proofs.get(*index) {
                Some(proof) => proof.clone(),
                None => resolver.resolve(*self.refs.get(index - self.proofs.len())?)?,
            };
            out.push(T::proven(signed.clone(), proof));
        }
        Some(ValueSet::from_sorted(out))
    }
}

impl<T: ProvenRecord> Wire for ProvenTable<T> {
    fn encode(&self, w: &mut Writer) {
        match self.base_ts {
            None => w.u8(0),
            Some(ts) => {
                w.u8(1);
                w.var(ts);
            }
        }
        self.proofs.encode(w);
        self.refs.encode(w);
        w.usize(self.records.len());
        for (index, signed) in &self.records {
            w.usize(*index);
            signed.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let base_ts = match r.u8()? {
            0 => None,
            1 => Some(r.var()?),
            _ => return Err(CodecError::Invalid("proven update tag")),
        };
        let proofs: Vec<Proof<T::Ack>> = Wire::decode(r)?;
        let inline: BTreeSet<ProofId> = proofs.iter().map(Proof::id).collect();
        if inline.len() != proofs.len() {
            return Err(CodecError::Invalid("proof listed twice"));
        }
        // A set decodes only in strictly ascending order.
        let refs: BTreeSet<ProofId> = Wire::decode(r)?;
        if !refs.is_disjoint(&inline) {
            return Err(CodecError::Invalid("proof both inline and referenced"));
        }
        let n = r.seq_len()?;
        let mut records: Vec<(usize, T::Signed)> = Vec::with_capacity(n);
        let mut used = 0;
        let refs: Vec<ProofId> = refs.into_iter().collect();
        let mut referenced = vec![false; refs.len()];
        for _ in 0..n {
            let index = r.usize()?;
            if let Some(proof) = proofs.get(index) {
                if index > used {
                    return Err(CodecError::Invalid("proofs out of first-use order"));
                }
                if index == used {
                    used += 1;
                } else {
                    r.reuse(proof.wire_size())?;
                }
            } else {
                *referenced
                    .get_mut(index - proofs.len())
                    .ok_or(CodecError::Invalid("proof index past the table"))? = true;
            }
            let signed = T::Signed::decode(r)?;
            if records.last().is_some_and(|(_, last)| *last >= signed) {
                return Err(CodecError::Invalid("proven records not strictly ascending"));
            }
            records.push((index, signed));
        }
        if used != proofs.len() || referenced.contains(&false) {
            return Err(CodecError::Invalid("proof table entry never used"));
        }
        Ok(ProvenTable {
            base_ts,
            proofs,
            refs,
            records,
        })
    }
}

/// The values the records of `set` carry.
fn values_of<T: ProvenRecord>(set: &ValueSet<T>) -> ValueSet<T::Value> {
    set.iter()
        .flat_map(|r| r.values().iter().cloned())
        .collect()
}

/// A proven set with the values its records carry beside it, both
/// changed by the same calls — so a handler comparing values does not
/// rebuild them from the records per message.
///
/// Not [`Wire`]: an owner encodes [`Self::records`] alone and rebuilds
/// the values with [`Valued::new`] when it decodes them.
#[derive(Debug, Clone)]
pub(crate) struct Valued<T: ProvenRecord> {
    records: ValueSet<T>,
    values: ValueSet<T::Value>,
}

impl<T: ProvenRecord> Valued<T> {
    /// `records` with their values.
    pub(crate) fn new(records: ValueSet<T>) -> Self {
        let values = values_of(&records);
        Valued { records, values }
    }

    /// The proven records.
    pub(crate) fn records(&self) -> &ValueSet<T> {
        &self.records
    }

    /// The values the records carry.
    pub(crate) fn values(&self) -> &ValueSet<T::Value> {
        &self.values
    }

    /// Inserts `record` and its values.
    pub(crate) fn insert(&mut self, record: T) {
        let values: ValueSet<T::Value> = record.values().iter().cloned().collect();
        if self.records.insert(record) {
            self.values.join_with(&values);
        }
    }

    /// Joins `other` in, records and values.
    pub(crate) fn join_with(&mut self, other: &Valued<T>) {
        self.records.join_with(&other.records);
        self.values.join_with(&other.values);
    }
}

impl<T: ProvenRecord> Default for Valued<T> {
    fn default() -> Self {
        Valued {
            records: ValueSet::new(),
            values: ValueSet::new(),
        }
    }
}

/// Per-peer referenceable-proof-id sets are pruned to this many newest
/// entries — comfortably under the receiver-side [`ProofResolver`]
/// default capacity, so an id a sender still assumes held has not
/// plausibly been evicted at the receiver. (If it has — pathological
/// churn — the resync fallback restores sync at the cost of one full
/// payload.)
const KNOWN_HELD_CAP: usize = 1024;

/// Notes that `peer` holds every proof of `set`.
fn note_held<T: ProvenRecord>(
    held: &mut BTreeMap<ProcessId, BTreeSet<ProofId>>,
    peer: ProcessId,
    set: &ValueSet<T>,
) {
    let entry = held.entry(peer).or_default();
    entry.extend(set.iter().map(|r| r.proof().id()));
    while entry.len() > KNOWN_HELD_CAP {
        entry.pop_first();
    }
}

/// The records `new` added since `base_ts`, for peer `to`: every proof
/// `to` demonstrably holds by reference.
fn delta_for<T: ProvenRecord>(
    held: &BTreeMap<ProcessId, BTreeSet<ProofId>>,
    to: ProcessId,
    base_ts: u64,
    new: &ValueSet<T>,
) -> ProvenUpdate<T> {
    let held = held.get(&to);
    ProvenUpdate::Table(ProvenTable::new(Some(base_ts), new, |id| {
        held.is_some_and(|held| held.contains(id))
    }))
}

/// Rebuilds the full set `update` stands for: `base_at(base_ts) ∪ new`,
/// with locally resolved handles attached for referenced proofs — the
/// sender's copies never travel. `None` is a gap: a base `base_at` does
/// not hold, or a referenced id the resolver does not hold.
fn resolve_onto<'a, T: ProvenRecord + 'a>(
    update: &ProvenUpdate<T>,
    base_at: impl FnOnce(u64) -> Option<&'a ValueSet<T>>,
    resolver: &mut ProofResolver<Proof<T::Ack>>,
) -> Option<ValueSet<T>> {
    let table = update.table();
    match table.base_ts {
        None => table.attach(resolver),
        Some(ts) => {
            let base = base_at(ts)?;
            Some(base.join(&table.attach(resolver)?))
        }
    }
}

/// Registers every distinct proof of `set` in `resolver`, making it
/// referenceable by peers. Call when a set is *consumed* (verified and
/// acted on) or locally assembled — never for payloads that failed
/// `AllSafe`.
pub fn register_proofs<T: ProvenRecord>(
    resolver: &mut ProofResolver<Proof<T::Ack>>,
    set: &ValueSet<T>,
) {
    let mut seen: BTreeSet<ProofId> = BTreeSet::new();
    for record in set.iter() {
        let proof = record.proof();
        if seen.insert(proof.id()) {
            resolver.register(proof.id(), proof.clone());
        }
    }
}

/// Proposer-side bookkeeping for delta-encoded proposal broadcasts: the
/// delta ledger (snapshots of the proven set by timestamp, each peer's
/// newest replied-to timestamp) plus the proof ids each peer
/// demonstrably holds. `Default` is fresh state: no snapshots, no reply
/// seen.
#[derive(Debug)]
pub struct ProvenDeltaSender<T: ProvenRecord> {
    ledger: DeltaSender<T>,
    /// Peer → proof ids it demonstrably delivered (see module docs).
    known_held: BTreeMap<ProcessId, BTreeSet<ProofId>>,
}

impl<T: ProvenRecord> Default for ProvenDeltaSender<T> {
    fn default() -> Self {
        ProvenDeltaSender {
            ledger: DeltaSender::default(),
            known_held: BTreeMap::new(),
        }
    }
}

impl<T: ProvenRecord> ProvenDeltaSender<T> {
    /// Records the proven set broadcast at `ts` (call once per
    /// broadcast, before encoding per-peer updates).
    pub fn record_broadcast(&mut self, ts: u64, set: &ValueSet<T>) {
        self.ledger.record_broadcast(ts, set);
    }

    /// Records that `from` replied (ack or nack) to the proposal of
    /// `ts`: it consumed that set, so its values need not be re-shipped
    /// and its proofs become referenceable. Ignores timestamps we never
    /// broadcast (Byzantine claims) or no longer retain.
    pub fn record_reply(&mut self, from: ProcessId, ts: u64) {
        if let Some(snapshot) = self.ledger.record_reply(from, ts) {
            note_held(&mut self.known_held, from, snapshot);
        }
    }

    /// Records that `from` evidently holds every proof of `set` (it
    /// shipped or referenced them itself — e.g. inside a nack), without
    /// implying it holds any particular proposal snapshot.
    pub fn note_peer_holds(&mut self, from: ProcessId, set: &ValueSet<T>) {
        note_held(&mut self.known_held, from, set);
    }

    /// Forgets everything assumed about `to` — the resync fallback:
    /// the peer reported a gap, so until it replies again it gets `Full`
    /// payloads with every proof inline.
    pub fn reset_peer(&mut self, to: ProcessId) {
        self.ledger.forget_peer(to);
        self.known_held.remove(&to);
    }

    /// Encodes the proven set `current` (broadcast at `ts`) for peer
    /// `to`: what the ledger's [`DeltaSender::encode_for`] gives it,
    /// with the proofs `to` demonstrably holds by reference.
    pub fn encode_for(&self, to: ProcessId, ts: u64, current: &ValueSet<T>) -> ProvenUpdate<T> {
        self.by_reference(to, self.ledger.encode_for(to, ts, current))
    }

    /// [`Self::encode_for`] for every peer `0..n` of one broadcast,
    /// indexed by peer. Peers on the same base share one set of new
    /// records; the references stay per peer.
    pub fn encode_broadcast(
        &self,
        n: usize,
        ts: u64,
        current: &ValueSet<T>,
    ) -> Vec<ProvenUpdate<T>> {
        let updates = self.ledger.encode_broadcast(n, ts, current);
        updates
            .into_iter()
            .enumerate()
            .map(|(to, update)| self.by_reference(to, update))
            .collect()
    }

    fn by_reference(&self, to: ProcessId, update: SetUpdate<T>) -> ProvenUpdate<T> {
        match update {
            SetUpdate::Full(set) => ProvenUpdate::Table(ProvenTable::new(None, &set, |_| false)),
            SetUpdate::Delta { base_ts, added } => delta_for(&self.known_held, to, base_ts, &added),
        }
    }

    /// Decodes a delta-encoded *reply* (a nack's accepted set): the base
    /// is our own snapshot of the proposal the peer is answering, and
    /// references resolve through our resolver. `None` is a gap — for
    /// replies, a reliable Byzantine signal (see module docs).
    pub fn resolve_reply(
        &self,
        update: &ProvenUpdate<T>,
        resolver: &mut ProofResolver<Proof<T::Ack>>,
    ) -> Option<ValueSet<T>> {
        resolve_onto(update, |ts| self.ledger.snapshot(ts), resolver)
    }
}

/// Acceptor-side bookkeeping for delta-encoded proposals: the ledger's
/// consumed sets per `(proposer, ts)` (delta bases) and the proof ids
/// each proposer demonstrably holds (reference targets for
/// delta-encoded nacks back to it). `Default` is fresh state.
#[derive(Debug)]
pub struct ProvenDeltaReceiver<T: ProvenRecord> {
    bases: DeltaReceiver<T>,
    peer_proofs: BTreeMap<ProcessId, BTreeSet<ProofId>>,
}

impl<T: ProvenRecord> Default for ProvenDeltaReceiver<T> {
    fn default() -> Self {
        ProvenDeltaReceiver {
            bases: DeltaReceiver::default(),
            peer_proofs: BTreeMap::new(),
        }
    }
}

impl<T: ProvenRecord> ProvenDeltaReceiver<T> {
    /// Resolves a proposal update from `from` into the full proven set.
    /// `None` means a detected gap — unknown base or unresolvable
    /// reference — to be answered with a resync request.
    pub fn resolve(
        &self,
        from: ProcessId,
        update: &ProvenUpdate<T>,
        resolver: &mut ProofResolver<Proof<T::Ack>>,
    ) -> Option<ValueSet<T>> {
        resolve_onto(update, |ts| self.bases.base(from, ts), resolver)
    }

    /// Records that the proposal `set` from `from` at `ts` was consumed
    /// (we are about to reply to it): it becomes a delta base, and its
    /// proofs become referenceable back to `from` — the sender shipped
    /// or referenced every one of them, so it holds them.
    pub fn record(&mut self, from: ProcessId, ts: u64, set: &ValueSet<T>) {
        note_held(&mut self.peer_proofs, from, set);
        self.bases.record(from, ts, set);
    }

    /// Encodes a *reply* set (a nack's accepted set) for proposer `to`:
    /// a delta against `base` — the proposal of `base_ts` being refused,
    /// which `to` holds by construction — with proofs `to` demonstrably
    /// holds by reference.
    pub fn encode_reply(
        &self,
        to: ProcessId,
        base_ts: u64,
        base: &ValueSet<T>,
        current: &ValueSet<T>,
    ) -> ProvenUpdate<T> {
        delta_for(&self.peer_proofs, to, base_ts, &current.difference(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::testing::{proof, TestAck};
    use bgla_codec::{decode_payload, encode_payload};
    use bgla_crypto::ProofIdBuilder;

    /// Minimal proven record for unit tests: a value plus a proof of
    /// numbered test acks ([`crate::proof::testing`]).
    #[derive(Debug, Clone)]
    struct Rec {
        v: u64,
        proof: Proof<TestAck>,
    }

    impl PartialEq for Rec {
        fn eq(&self, other: &Self) -> bool {
            self.v == other.v
        }
    }
    impl Eq for Rec {}
    impl PartialOrd for Rec {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Rec {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.v.cmp(&other.v)
        }
    }
    impl Wire for Rec {
        fn encode(&self, w: &mut Writer) {
            w.u64(self.v);
            self.proof.encode(w);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
            Ok(Rec {
                v: r.u64()?,
                proof: Wire::decode(r)?,
            })
        }
    }
    impl SetItem for Rec {
        const EQ_IS_IDENTITY: bool = false;
    }
    impl ProvenRecord for Rec {
        type Ack = TestAck;
        type Value = u64;
        type Signed = u64;
        fn values(&self) -> &[u64] {
            std::slice::from_ref(&self.v)
        }
        fn proof(&self) -> &Proof<TestAck> {
            &self.proof
        }
        fn signed(&self) -> &u64 {
            &self.v
        }
        fn proven(v: u64, proof: Proof<TestAck>) -> Self {
            Rec { v, proof }
        }
    }

    fn rec(v: u64, acks: &[u64]) -> Rec {
        Rec {
            v,
            proof: proof(acks),
        }
    }

    fn set(recs: &[Rec]) -> ValueSet<Rec> {
        recs.iter().cloned().collect()
    }

    fn bogus_id(seed: u8) -> ProofId {
        let mut b = ProofIdBuilder::new();
        b.add_ack(&[seed]);
        b.finish()
    }

    /// What a ledger built: `(base_ts, #inline proofs, #refs, #records)`.
    fn shape(update: &ProvenUpdate<Rec>) -> (Option<u64>, usize, usize, usize) {
        let ProvenUpdate::Table(t) = update else {
            panic!("ledgers build tables, got {update:?}");
        };
        let inline: BTreeSet<ProofId> = t.records().filter_map(|(_, p)| p.map(Proof::id)).collect();
        (
            t.base_ts(),
            inline.len(),
            t.refs().len(),
            t.records().count(),
        )
    }

    #[test]
    fn first_contact_is_full_and_replies_enable_deltas() {
        let mut tx: ProvenDeltaSender<Rec> = ProvenDeltaSender::default();
        let mut resolver: ProofResolver<Proof<TestAck>> = ProofResolver::default();
        let s0 = set(&[rec(1, &[10]), rec(2, &[10])]);
        tx.record_broadcast(1, &s0);
        assert_eq!(shape(&tx.encode_for(9, 1, &s0)), (None, 1, 0, 2));

        // Peer 9 consumes and replies: the shared proof becomes
        // referenceable and values stop traveling.
        tx.record_reply(9, 1);
        let s1 = s0.join(&set(&[rec(3, &[10])]));
        tx.record_broadcast(2, &s1);
        let u = tx.encode_for(9, 2, &s1);
        assert_eq!(shape(&u), (Some(1), 0, 1, 1), "shared proof by reference");
        // Receiver side: reconstruct through base + resolver.
        let mut rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::default();
        register_proofs(&mut resolver, &s0);
        rx.record(0, 1, &s0);
        let full = rx.resolve(0, &u, &mut resolver).expect("no gap");
        assert_eq!(full, s1);
    }

    #[test]
    fn unknown_base_and_unknown_ref_are_gaps() {
        let rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::default();
        let mut resolver: ProofResolver<Proof<TestAck>> = ProofResolver::default();
        let bogus_base = ProvenUpdate::Delta {
            base_ts: 77,
            new: set(&[rec(1, &[1])]),
            refs: vec![],
        };
        assert!(rx.resolve(3, &bogus_base, &mut resolver).is_none());

        let mut rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::default();
        rx.record(3, 0, &ValueSet::new());
        let r = rec(1, &[1]);
        let unknown_ref = ProvenUpdate::Delta {
            base_ts: 0,
            refs: vec![r.proof.id()],
            new: set(&[r]),
        };
        assert!(
            rx.resolve(3, &unknown_ref, &mut resolver).is_none(),
            "a referenced proof the resolver does not hold is a gap"
        );
    }

    #[test]
    fn refs_matching_no_record_are_not_shipped() {
        let mut rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::default();
        let mut resolver: ProofResolver<Proof<TestAck>> = ProofResolver::default();
        rx.record(3, 0, &ValueSet::new());
        let u = ProvenUpdate::Delta {
            base_ts: 0,
            new: set(&[rec(1, &[1])]),
            refs: vec![bogus_id(0xAB)],
        };
        let full = rx.resolve(3, &u, &mut resolver).expect("inline proof");
        assert_eq!(full.len(), 1);
        let table = ProvenUpdate::Table(u.table().into_owned());
        assert_eq!(shape(&table), (Some(0), 1, 0, 1), "inline, no refs");
    }

    #[test]
    fn reset_peer_restores_full_payloads() {
        let mut tx: ProvenDeltaSender<Rec> = ProvenDeltaSender::default();
        let s = set(&[rec(1, &[1])]);
        tx.record_broadcast(1, &s);
        tx.record_reply(4, 1);
        assert!(tx.encode_for(4, 2, &s).is_delta());
        tx.reset_peer(4);
        assert!(!tx.encode_for(4, 2, &s).is_delta());
    }

    #[test]
    fn reply_deltas_reference_the_proposers_own_proofs() {
        // Proposer P (id 0) sent us set s_p; we hold accepted = s_p ∪ ours.
        // The nack back to P references P's proof and ships ours inline.
        let mut rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::default();
        let p_rec = rec(1, &[10]);
        let our_rec = rec(2, &[20]);
        let s_p = set(std::slice::from_ref(&p_rec));
        rx.record(0, 3, &s_p);
        let accepted = s_p.join(&set(std::slice::from_ref(&our_rec)));
        let u = rx.encode_reply(0, 3, &s_p, &accepted);
        assert_eq!(shape(&u), (Some(3), 1, 0, 1), "our proof is new to P");
        // P resolves against its own snapshot.
        let mut tx: ProvenDeltaSender<Rec> = ProvenDeltaSender::default();
        let mut resolver: ProofResolver<Proof<TestAck>> = ProofResolver::default();
        tx.record_broadcast(3, &s_p);
        let full = tx.resolve_reply(&u, &mut resolver).expect("no gap");
        assert_eq!(full, accepted);

        // A second nack after P re-proposed the union references our
        // proof back (P shipped it, so it holds it).
        rx.record(0, 4, &accepted);
        let u2 = rx.encode_reply(0, 4, &accepted, &accepted);
        assert_eq!(shape(&u2), (Some(4), 0, 0, 0));
        let grown = accepted.join(&set(&[rec(9, &[20])]));
        let u3 = rx.encode_reply(0, 4, &accepted, &grown);
        assert_eq!(shape(&u3), (Some(4), 0, 1, 1));
        assert_eq!(
            u3.table().refs(),
            &[our_rec.proof.id()],
            "a proof P consumed travels back by reference"
        );
    }

    /// Each peer's payload is what it would get alone; what each holds by
    /// reference stays its own.
    #[test]
    fn broadcast_encodes_each_peer_as_alone() {
        let mut tx: ProvenDeltaSender<Rec> = ProvenDeltaSender::default();
        let s0 = set(&[rec(1, &[10])]);
        tx.record_broadcast(1, &s0);
        tx.record_reply(1, 1);
        tx.record_reply(2, 1);
        let s1 = s0.join(&set(&[rec(2, &[20]), rec(3, &[30])]));
        tx.note_peer_holds(2, &set(&[rec(2, &[20])]));
        tx.record_broadcast(2, &s1);
        let all = tx.encode_broadcast(3, 2, &s1);
        for (to, update) in all.iter().enumerate() {
            let alone = tx.encode_for(to, 2, &s1);
            assert_eq!(format!("{update:?}"), format!("{alone:?}"), "peer {to}");
        }
        let shapes: Vec<_> = all.iter().map(shape).collect();
        assert_eq!(
            shapes,
            [(None, 3, 0, 3), (Some(1), 2, 0, 2), (Some(1), 1, 1, 2)]
        );
    }

    /// A reference costs the 16-byte id, not the proof; one proof under
    /// two records is said once, and each record costs its index.
    #[test]
    fn a_table_says_each_proof_once_and_a_reference_in_its_id() {
        let shared = proof(&[1, 2, 3, 4, 5, 6]);
        let a = Rec {
            v: 1,
            proof: shared.clone(),
        };
        let b = Rec {
            v: 2,
            proof: shared.clone(),
        };
        let full = ProvenUpdate::Full(set(&[a.clone(), b.clone()]));
        let records = 1 + 2 * (1 + 8);
        assert_eq!(full.wire_size(), 1 + 1 + shared.wire_size() + 1 + records);
        let delta = ProvenUpdate::Delta {
            base_ts: 7,
            new: set(&[a, b]),
            refs: vec![shared.id()],
        };
        assert_eq!(delta.wire_size(), 1 + 1 + 1 + (1 + 16) + records);
        for u in [full, delta] {
            let bytes = encode_payload(&u);
            assert_eq!(bytes.len(), u.wire_size());
            let back: ProvenUpdate<Rec> = decode_payload(&bytes).unwrap();
            assert_eq!(encode_payload(&back), bytes);
            assert_eq!(back.is_delta(), u.is_delta());
        }
    }

    /// `Default` asks nothing of the record type: a proven batch has no
    /// default, and its ledgers still start empty.
    #[test]
    fn ledgers_default_without_a_default_record() {
        use crate::gsbs::ProvenBatch;
        let tx = ProvenDeltaSender::<ProvenBatch<u64>>::default();
        let rx = ProvenDeltaReceiver::<ProvenBatch<u64>>::default();
        assert!(!tx.encode_for(1, 1, &ValueSet::new()).is_delta());
        assert!(rx.bases.base(1, 0).is_none());
    }

    #[test]
    fn valued_keeps_values_beside_records() {
        let mut a = Valued::new(set(&[rec(3, &[1]), rec(1, &[1])]));
        assert_eq!(a.values(), &[1, 3].into_iter().collect());
        a.insert(rec(2, &[2]));
        a.insert(rec(3, &[9]));
        let b = Valued::new(set(&[rec(5, &[5]), rec(1, &[7])]));
        a.join_with(&b);
        assert_eq!(a.values(), &values_of(a.records()));
        assert_eq!(a.values(), &[1, 2, 3, 5].into_iter().collect());
    }
}
