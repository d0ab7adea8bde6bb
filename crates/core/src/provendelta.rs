//! Delta-encoded, **proof-by-reference** payloads for proof-carrying
//! messages — [`SetUpdate`] lifted to proven-record sets ([`Proven`]) —
//! and [`ProofPath`], the proving phase SbS and GSbS share: `AllSafe`
//! and the `ack_req`/`nack` exchange of those sets, written once.
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
//! timestamps. [`ProofPath`] keeps that ledger, on both sides, and adds
//! only *which proofs*: a sender may reference a proof to a peer only
//! when that peer *demonstrably* delivered it:
//!
//! * **ack/nack replies** — a peer that replied to the proposal of
//!   timestamp `t` consumed it, verified its proofs and registered them
//!   in its [`ProofResolver`]; every proof in the `t` snapshot becomes
//!   referenceable;
//! * **received proven sets** — a peer that shipped (or itself
//!   referenced) a proof inside a nack evidently holds it, so the very
//!   proofs a refinement just absorbed from a nacker can travel back to
//!   that nacker as references on the re-broadcast — the dominant saving
//!   on refinement-heavy runs.
//!
//! Note what is *not* enough: an acceptor whose safe-ack ended up inside
//! a proof has never seen the other quorum members' acks, so signing a
//! safe-ack does **not** imply holding the assembled proof — references
//! are seeded from replies and received sets only.
//!
//! Acceptors mirror the discipline: consuming a proposal notes, per
//! proposer, the proof ids that proposer evidently holds, so *reply*
//! traffic — the delta-encoded `Nack.accepted` — can reference the
//! proposer's own proofs back at it. A nack deltas against the proposal
//! it refuses, which the proposer holds by construction and resolves
//! from its own snapshots.
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
//! A payload says each proof once, as a proof says each echo once, and
//! says each signed record once: the records without their proofs first,
//! each with an index into a table of the proofs that follows.
//!
//! ```text
//! payload : 0                     (the whole set)
//!         | 1 | var(base_ts)      (the records added since base_ts)
//!           var(#records)| (var(index) | record without its proof)…
//!                                  strictly ascending; the index points
//!                                  into the inline proofs, then the refs
//!           var(#inline) | proof…  each distinct inline proof once, in
//!                                  first-use order, each echo as below
//!           var(#refs)   | id…     each proof the receiver holds, by its
//!                                  16-byte ProofId, strictly ascending
//! echo    : var(#named)  | var(record)…  the elements that are records
//!                                  of this payload, by their position
//!                                  among the records, strictly ascending
//!           var(#rest)   | element…      the other elements, ascending
//! ```
//!
//! An inline proof is otherwise in its own codec form ([`Proof`]'s
//! `Wire` impl). A proposer's own proof echoes the very batches it
//! certifies, so in an `AckReq` most of each echo is a few one-byte
//! positions.
//!
//! The decoder refuses an index past the table, a table entry used by no
//! record or listed twice, inline proofs out of first-use order, refs out
//! of order or naming an inline proof, and records out of order; in an
//! echo, a position past the records, positions not strictly ascending,
//! and an inline element equal to a record, which had to be named. So a
//! payload has exactly one encoding. A referenced proof never travels:
//! the receiver attaches its own copy from its [`ProofResolver`] when it
//! resolves the payload, or reports the gap. Records that share an inline
//! proof share one decoded handle of it, hashed once; as a proof's echo,
//! each use after the first is charged to the reader
//! ([`Reader::reuse`]), since every record walks its proof's acks when
//! checked. Each named echo element is charged the length of its record
//! too, since the proof's id hashes it again: else `P` proofs naming `R`
//! large records would make a receiver hash `P × R` records for about
//! `P × R` bytes of input. A reference is not charged: it resolves only
//! to a proof the receiver itself retained.
//!
//! A table measures its encoding once, when it is built or decoded, so
//! metering a send of it is `O(1)`.

use crate::held::Signed;
use crate::proof::{decode_acks, encode_acks, Proof, ProofAck};
use crate::valueset::{DeltaReceiver, DeltaSender, SetItem, SetUpdate, ValueSet};
use bgla_codec::{CodecError, Reader, Wire, Writer};
use bgla_crypto::{CachedVerifier, ProofId, ProofResolver};
use bgla_simnet::ProcessId;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// A signed record with its proof of safety attached: the paper's
/// `<v, Safe_acks>` pair (SbS [`crate::sbs::ProvenValue`], GSbS
/// [`crate::gsbs::ProvenBatch`]), and the element type [`ProvenUpdate`]
/// deltas over.
///
/// `==` and `Ord` see only the signed record: it is the same lattice
/// element whichever quorum certified it, so [`SetItem::EQ_IS_IDENTITY`]
/// is `false`, and a payload ships records in that order.
#[derive(Debug, Clone)]
pub struct Proven<A: ProofAck> {
    /// The signed record.
    pub signed: A::Echoed,
    /// The quorum of safe-acks certifying it.
    pub proof: Proof<A>,
}

impl<A: ProofAck> Proven<A> {
    /// The values the record carries.
    pub fn values(&self) -> &[A::Value] {
        A::values(&self.signed)
    }
}

impl<A: ProofAck> PartialEq for Proven<A> {
    fn eq(&self, other: &Self) -> bool {
        self.signed == other.signed
    }
}
impl<A: ProofAck> Eq for Proven<A> {}
impl<A: ProofAck> PartialOrd for Proven<A> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: ProofAck> Ord for Proven<A> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.signed.cmp(&other.signed)
    }
}

impl<A: ProofAck> SetItem for Proven<A> {
    /// `==` ignores the proof: joins must keep our own handles.
    const EQ_IS_IDENTITY: bool = false;
}

impl<A: ProofAck> Wire for Proven<A> {
    fn encode(&self, w: &mut Writer) {
        let Self { signed, proof } = self;
        signed.encode(w);
        proof.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Proven {
            signed: Wire::decode(r)?,
            proof: Wire::decode(r)?,
        })
    }
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
pub enum ProvenUpdate<A: ProofAck> {
    /// The whole set, every distinct proof inline (first contact or
    /// resync fallback).
    Full(ValueSet<Proven<A>>),
    /// The additions relative to the set this receiver consumed at
    /// `base_ts`, with proofs the receiver holds referenced by id.
    Delta {
        /// Timestamp of the base set the receiver already holds.
        base_ts: u64,
        /// `current ∖ base` — a record's proof ships inline unless its
        /// id appears in `refs`.
        new: ValueSet<Proven<A>>,
        /// Ids (among `new`'s proofs) the receiver is assumed to hold.
        /// An id no record of `new` carries is not shipped.
        refs: Vec<ProofId>,
    },
    /// The payload as the wire carries it.
    Table(ProvenTable<A>),
}

impl<A: ProofAck> ProvenUpdate<A> {
    /// This payload as the wire carries it.
    pub fn table(&self) -> Cow<'_, ProvenTable<A>> {
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
impl<A: ProofAck> Wire for ProvenUpdate<A> {
    fn encode(&self, w: &mut Writer) {
        self.table().encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ProvenUpdate::Table(ProvenTable::decode(r)?))
    }
}

/// Proven records as the wire carries them: each record without its
/// proof but with the index of its proof, then each distinct proof once
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct ProvenTable<A: ProofAck> {
    /// `None` for the whole set; `Some(ts)` for the records added since
    /// the set the receiver consumed at `ts`.
    base_ts: Option<u64>,
    /// The records without their proofs, strictly ascending.
    records: Vec<A::Echoed>,
    /// Per record, the index of its proof in `proofs` followed by `refs`.
    proof_of: Vec<usize>,
    /// The proofs shipped inline, each once, in first-use order.
    proofs: Vec<Proof<A>>,
    /// The ids of the proofs the receiver holds, strictly ascending.
    refs: Vec<ProofId>,
    /// The length of the encoding, measured once.
    wire: usize,
}

impl<A: ProofAck> ProvenTable<A> {
    /// `records` with every proof `held` says the receiver holds by
    /// reference and the others inline.
    pub fn new(
        base_ts: Option<u64>,
        records: &ValueSet<Proven<A>>,
        held: impl Fn(&ProofId) -> bool,
    ) -> Self {
        let (refs, inline): (BTreeSet<ProofId>, BTreeSet<ProofId>) = records
            .iter()
            .map(|r| r.proof.id())
            .partition(|id| held(id));
        let refs: Vec<ProofId> = refs.into_iter().collect();
        let mut proofs = Vec::with_capacity(inline.len());
        let mut at: BTreeMap<ProofId, usize> = BTreeMap::new();
        let proof_of: Vec<usize> = records
            .iter()
            .map(|r| {
                let proof = &r.proof;
                match refs.binary_search(&proof.id()) {
                    Ok(k) => inline.len() + k,
                    Err(_) => *at.entry(proof.id()).or_insert_with(|| {
                        proofs.push(proof.clone());
                        proofs.len() - 1
                    }),
                }
            })
            .collect();
        let records: Vec<A::Echoed> = records.iter().map(|r| r.signed.clone()).collect();
        let mut wire = Writer::counting();
        write_table(&mut wire, base_ts, &records, &proof_of, &proofs, &refs);
        ProvenTable {
            base_ts,
            records,
            proof_of,
            proofs,
            refs,
            wire: wire.len(),
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
    pub fn records(&self) -> impl Iterator<Item = (&A::Echoed, Option<&Proof<A>>)> {
        self.records
            .iter()
            .zip(&self.proof_of)
            .map(|(signed, index)| (signed, self.proofs.get(*index)))
    }

    /// The records with their proofs attached: an inline proof from the
    /// table, a referenced one from `resolver`. `None` is a gap: a
    /// referenced id the resolver does not hold.
    fn attach(&self, resolver: &mut ProofResolver<Proof<A>>) -> Option<ValueSet<Proven<A>>> {
        let mut out = Vec::with_capacity(self.records.len());
        for (signed, index) in self.records.iter().zip(&self.proof_of) {
            let proof = match self.proofs.get(*index) {
                Some(proof) => proof.clone(),
                None => resolver.resolve(*self.refs.get(index - self.proofs.len())?)?,
            };
            out.push(Proven {
                signed: signed.clone(),
                proof,
            });
        }
        Some(ValueSet::from_sorted(out))
    }
}

/// Writes a table of `records`, each under the proof `proof_of` says,
/// `proofs` inline and `refs` by id (see the module docs).
fn write_table<A: ProofAck>(
    w: &mut Writer,
    base_ts: Option<u64>,
    records: &[A::Echoed],
    proof_of: &[usize],
    proofs: &[Proof<A>],
    refs: &[ProofId],
) {
    match base_ts {
        None => w.u8(0),
        Some(ts) => {
            w.u8(1);
            w.var(ts);
        }
    }
    w.usize(records.len());
    for (signed, index) in records.iter().zip(proof_of) {
        w.usize(*index);
        signed.encode(w);
    }
    w.usize(proofs.len());
    for proof in proofs {
        encode_acks(proof.as_slice(), w, |echo, w| write_echo(echo, records, w));
    }
    w.usize(refs.len());
    for id in refs {
        id.encode(w);
    }
}

/// Writes `echo` as a table carries it: the elements that are among
/// `records` by their position there, then the others (see the module
/// docs). `records` is strictly ascending.
fn write_echo<E: SetItem>(echo: &ValueSet<E>, records: &[E], w: &mut Writer) {
    let mut named = Vec::new();
    let mut rest = Vec::new();
    let mut from = 0;
    for element in echo {
        let unseen = records.get(from..).unwrap_or_default();
        from += unseen.partition_point(|r| r < element);
        if records.get(from) == Some(element) {
            named.push(from);
            from += 1;
        } else {
            rest.push(element);
        }
    }
    w.usize(named.len());
    for at in named {
        w.usize(at);
    }
    w.usize(rest.len());
    for element in rest {
        element.encode(w);
    }
}

/// Reads an echo [`write_echo`] wrote against `records`, charging each
/// named element the length of its record: the proof's id hashes it
/// again.
fn read_echo<E: SetItem>(r: &mut Reader<'_>, records: &[E]) -> Result<ValueSet<E>, CodecError> {
    let count = r.seq_len()?;
    let mut named: Vec<&E> = Vec::with_capacity(count);
    let mut next = 0;
    for _ in 0..count {
        let at = r.usize()?;
        let record = records
            .get(at)
            .ok_or(CodecError::Invalid("echoed record past the records"))?;
        if at < next {
            return Err(CodecError::Invalid("echoed records not strictly ascending"));
        }
        r.reuse(record.wire_size())?;
        named.push(record);
        next = at + 1;
    }
    let rest = ValueSet::<E>::decode(r)?;
    if rest.iter().any(|e| records.binary_search(e).is_ok()) {
        return Err(CodecError::Invalid("echoed record spelled out"));
    }
    let mut named = named.into_iter().peekable();
    let mut items = Vec::with_capacity(count + rest.len());
    for element in &rest {
        while let Some(record) = named.next_if(|record| *record < element) {
            items.push(record.clone());
        }
        items.push(element.clone());
    }
    items.extend(named.cloned());
    Ok(ValueSet::from_sorted(items))
}

impl<A: ProofAck> Wire for ProvenTable<A> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            base_ts,
            records,
            proof_of,
            proofs,
            refs,
            wire,
        } = self;
        if !w.counted(*wire) {
            write_table(w, *base_ts, records, proof_of, proofs, refs);
        }
    }

    fn wire_size(&self) -> usize {
        self.wire
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let unread = r.remaining();
        let base_ts = match r.u8()? {
            0 => None,
            1 => Some(r.var()?),
            _ => return Err(CodecError::Invalid("proven update tag")),
        };
        let n = r.seq_len()?;
        let mut records: Vec<A::Echoed> = Vec::with_capacity(n);
        let mut proof_of = Vec::with_capacity(n);
        for _ in 0..n {
            proof_of.push(r.usize()?);
            let signed = A::Echoed::decode(r)?;
            if records.last().is_some_and(|last| *last >= signed) {
                return Err(CodecError::Invalid("proven records not strictly ascending"));
            }
            records.push(signed);
        }
        let listed = r.seq_len()?;
        let mut proofs: Vec<Proof<A>> = Vec::with_capacity(listed);
        for _ in 0..listed {
            proofs.push(Proof::new(decode_acks(r, |r| read_echo(r, &records))?));
        }
        let inline: BTreeSet<ProofId> = proofs.iter().map(Proof::id).collect();
        if inline.len() != proofs.len() {
            return Err(CodecError::Invalid("proof listed twice"));
        }
        // A set decodes only in strictly ascending order.
        let refs: BTreeSet<ProofId> = Wire::decode(r)?;
        if !refs.is_disjoint(&inline) {
            return Err(CodecError::Invalid("proof both inline and referenced"));
        }
        let refs: Vec<ProofId> = refs.into_iter().collect();
        let mut used = 0;
        let mut referenced = vec![false; refs.len()];
        for &index in &proof_of {
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
        }
        if used != proofs.len() || referenced.contains(&false) {
            return Err(CodecError::Invalid("proof table entry never used"));
        }
        Ok(ProvenTable {
            base_ts,
            records,
            proof_of,
            proofs,
            refs,
            wire: unread - r.remaining(),
        })
    }
}

/// The values the records of `set` carry.
fn values_of<A: ProofAck>(set: &ValueSet<Proven<A>>) -> ValueSet<A::Value> {
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
pub(crate) struct Valued<A: ProofAck> {
    records: ValueSet<Proven<A>>,
    values: ValueSet<A::Value>,
}

impl<A: ProofAck> Valued<A> {
    /// `records` with their values.
    pub(crate) fn new(records: ValueSet<Proven<A>>) -> Self {
        let values = values_of(&records);
        Valued { records, values }
    }

    /// The proven records.
    pub(crate) fn records(&self) -> &ValueSet<Proven<A>> {
        &self.records
    }

    /// The values the records carry.
    pub(crate) fn values(&self) -> &ValueSet<A::Value> {
        &self.values
    }

    /// Inserts `record` and its values.
    pub(crate) fn insert(&mut self, record: Proven<A>) {
        let values: ValueSet<A::Value> = record.values().iter().cloned().collect();
        if self.records.insert(record) {
            self.values.join_with(&values);
        }
    }

    /// Joins `other` in, records and values.
    pub(crate) fn join_with(&mut self, other: &Valued<A>) {
        self.records.join_with(&other.records);
        self.values.join_with(&other.values);
    }
}

impl<A: ProofAck> Default for Valued<A> {
    fn default() -> Self {
        Valued {
            records: ValueSet::new(),
            values: ValueSet::new(),
        }
    }
}

/// Per-peer referenceable-proof-id sets hold at most this many ids,
/// half the receiver-side [`ProofResolver`] default capacity. Past it,
/// [`note_held`] drops the smallest [`ProofId`] — ids are hashes, so an
/// arbitrary entry, not the oldest — and that proof ships inline again.
/// An id still assumed held that the receiver has evicted is a wrong
/// guess, which costs one `Resync` round trip and a full payload.
const KNOWN_HELD_CAP: usize = 1024;

/// Notes that `peer` holds every proof of `set`.
fn note_held<A: ProofAck>(
    held: &mut BTreeMap<ProcessId, BTreeSet<ProofId>>,
    peer: ProcessId,
    set: &ValueSet<Proven<A>>,
) {
    let entry = held.entry(peer).or_default();
    entry.extend(set.iter().map(|r| r.proof.id()));
    while entry.len() > KNOWN_HELD_CAP {
        entry.pop_first();
    }
}

/// The records `new` added since `base_ts`, for peer `to`: every proof
/// `to` demonstrably holds by reference.
fn delta_for<A: ProofAck>(
    held: &BTreeMap<ProcessId, BTreeSet<ProofId>>,
    to: ProcessId,
    base_ts: u64,
    new: &ValueSet<Proven<A>>,
) -> ProvenUpdate<A> {
    let held = held.get(&to);
    ProvenUpdate::Table(ProvenTable::new(Some(base_ts), new, |id| {
        held.is_some_and(|held| held.contains(id))
    }))
}

/// Rebuilds the full set `update` stands for: `base_at(base_ts) ∪ new`,
/// with locally resolved handles attached for referenced proofs — the
/// sender's copies never travel. `None` is a gap: a base `base_at` does
/// not hold, or a referenced id the resolver does not hold.
fn resolve_onto<'a, A: ProofAck>(
    update: &ProvenUpdate<A>,
    base_at: impl FnOnce(u64) -> Option<&'a ValueSet<Proven<A>>>,
    resolver: &mut ProofResolver<Proof<A>>,
) -> Option<ValueSet<Proven<A>>> {
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
fn register_proofs<A: ProofAck>(resolver: &mut ProofResolver<Proof<A>>, set: &ValueSet<Proven<A>>) {
    let mut seen: BTreeSet<ProofId> = BTreeSet::new();
    for record in set.iter() {
        let proof = &record.proof;
        if seen.insert(proof.id()) {
            resolver.register(proof.id(), proof.clone());
        }
    }
}

/// The proving phase of SbS and GSbS — Algorithm 10's `AllSafe` and the
/// `ack_req`/`nack` exchange of proven sets, which GSbS runs once per
/// round (§8.2) — over the state it keeps: the acceptor's accepted
/// proven set, the proof resolver and both delta ledgers. Each process
/// keeps its own phases, messages, ack signing and thresholds, and calls
/// this for the rest; checking a set goes through [`Proving`], which
/// adds the process's verifier, quorum and validator.
///
/// # Verify-once proofs
///
/// Proofs of safety are `O(n²)` bytes and arrive attached to every
/// `ack_req`/`nack`; the same proof is re-shipped on every refinement
/// and Byzantine peers can redeliver it without bound. So each
/// *distinct* proof is verified *once per process*: proofs are
/// [`Proof`] handles whose [`ProofId`] is interned at construction, and
/// [`Proving::all_safe`] skips the signature checks of a proof the
/// [`ProofResolver`] holds as verified (the caching contract is in
/// [`bgla_crypto::proofstore`]). Only the cheap pair checks
/// ([`ProofAck::covers`]) re-run on redelivery, and skipping a
/// deterministic check cannot change a decision or a trace. Proven sets
/// are [`ValueSet`]s — Arc-backed sorted vectors with `O(1)` clone and merge-walk join — so redelivered
/// supersets are recognized structurally instead of re-walked.
///
/// # Delta-encoded, proof-by-reference proposals
///
/// Verify-once removes the redundant *computation*; shipping every
/// proof in full on every `ack_req`/`nack` would leave the redundant
/// *bytes*. Proof-carrying payloads therefore travel as
/// [`ProvenUpdate`]s: after an acceptor has acked or nacked a proposal,
/// later `ack_req`s to it carry only the records added since that
/// reply, with proofs the acceptor demonstrably holds named by
/// [`ProofId`] reference (16 bytes instead of `O(n²)`); `nack`s delta
/// against the very proposal they refuse and reference the proposer's
/// own proofs back at it. Receivers reconstruct the full set by joining
/// the delta onto the recorded base and resolving each reference in
/// their [`ProofResolver`] — hash lookups, no re-verification. In GSbS
/// the
/// proven proposal is cumulative across rounds, so without deltas every
/// round would re-ship every earlier round's batches and proofs;
/// timestamps are monotone across rounds, so the sender-side snapshots
/// key deltas exactly as in SbS. An unresolvable *proposal* reference or
/// base is a **delta gap**: the acceptor answers with a resync request
/// and the proposer falls back to `Full` — only Byzantine senders (or
/// resolver eviction on pathological runs) can trigger it. See the
/// module docs for the reference discipline and the wire format.
pub struct ProofPath<A: ProofAck> {
    /// Acceptor: the accepted proven set, with its values.
    accepted: Valued<A>,
    /// Retained proof handles, resolvable by id when a peer ships a
    /// reference instead of the proof, each marked whether this process
    /// image verified it.
    resolver: ProofResolver<Proof<A>>,
    /// Proposer: the delta ledger — the proposal broadcast at each
    /// retained `ts`, and each peer's newest replied-to `ts`.
    sent: DeltaSender<Proven<A>>,
    /// Proposer: acceptor → ids of the proofs it demonstrably holds.
    acceptor_holds: BTreeMap<ProcessId, BTreeSet<ProofId>>,
    /// Acceptor: the proposals consumed per `(proposer, ts)`, the bases
    /// of later deltas.
    bases: DeltaReceiver<Proven<A>>,
    /// Acceptor: proposer → ids of the proofs it demonstrably holds.
    proposer_holds: BTreeMap<ProcessId, BTreeSet<ProofId>>,
}

impl<A: ProofAck> Default for ProofPath<A> {
    fn default() -> Self {
        ProofPath {
            accepted: Valued::default(),
            resolver: ProofResolver::default(),
            sent: DeltaSender::default(),
            acceptor_holds: BTreeMap::new(),
            bases: DeltaReceiver::default(),
            proposer_holds: BTreeMap::new(),
        }
    }
}

impl<A: ProofAck> ProofPath<A> {
    /// Assembles the proof `acks` make over the request `echo` and
    /// inserts into `proposed` every record of `echo` each ack covers —
    /// the unconflicted ones. The proof is locally assembled and
    /// retained, so it is referenceable from now on.
    pub(crate) fn prove(
        &mut self,
        acks: Vec<A>,
        echo: &ValueSet<A::Echoed>,
        proposed: &mut Valued<A>,
    ) {
        let proof = Proof::new(acks);
        self.resolver.register(proof.id(), proof.clone());
        for signed in echo.iter().filter(|r| proof.iter().all(|a| a.covers(r))) {
            proposed.insert(Proven {
                signed: signed.clone(),
                proof: proof.clone(),
            });
        }
    }

    /// Records the proposal `proposed` broadcast at `ts` and encodes it
    /// for every peer `0..n`: the whole set on first contact or after a
    /// resync, else the records added since the peer's newest reply, with
    /// every proof it demonstrably holds by reference. Peers on the same
    /// base share one set of new records.
    pub(crate) fn propose(
        &mut self,
        n: usize,
        ts: u64,
        proposed: &ValueSet<Proven<A>>,
    ) -> Vec<ProvenUpdate<A>> {
        self.sent.record_broadcast(ts, proposed);
        let updates = self.sent.encode_broadcast(n, ts, proposed);
        (updates.into_iter().enumerate())
            .map(|(to, update)| match update {
                SetUpdate::Full(set) => {
                    ProvenUpdate::Table(ProvenTable::new(None, &set, |_| false))
                }
                SetUpdate::Delta { base_ts, added } => {
                    delta_for(&self.acceptor_holds, to, base_ts, &added)
                }
            })
            .collect()
    }

    /// Records that `from` replied (ack or nack) to our proposal of `ts`:
    /// it consumed that set, so its records need not be re-shipped and
    /// its proofs become referenceable. Ignores timestamps we never
    /// broadcast (Byzantine claims) or no longer retain.
    pub(crate) fn replied(&mut self, from: ProcessId, ts: u64) {
        if let Some(snapshot) = self.sent.record_reply(from, ts) {
            note_held(&mut self.acceptor_holds, from, snapshot);
        }
    }

    /// The resync fallback: `peer` could not resolve a delta, so forget
    /// every assumption about it; it gets `Full` payloads until it
    /// replies again. Correct peers never ask, so the cost is bounded by
    /// the adversary's own message budget.
    pub(crate) fn resync(&mut self, peer: ProcessId) {
        self.sent.forget_peer(peer);
        self.acceptor_holds.remove(&peer);
    }

    /// Acceptor: the full set a proposal `update` from `from` stands for,
    /// its base among the proposals consumed from `from`. `None`: a gap.
    /// Public for the codec tests; [`Proving`] is the real caller.
    pub fn resolve_proposal(
        &mut self,
        from: ProcessId,
        update: &ProvenUpdate<A>,
    ) -> Option<ValueSet<Proven<A>>> {
        resolve_onto(update, |ts| self.bases.base(from, ts), &mut self.resolver)
    }

    /// Acceptor: `set`, proposed by `from` at `ts`, is consumed — a delta
    /// base from now on, and `from` shipped or referenced every proof of
    /// it, so it holds them.
    fn consume(&mut self, from: ProcessId, ts: u64, set: &ValueSet<Proven<A>>) {
        register_proofs(&mut self.resolver, set);
        note_held(&mut self.proposer_holds, from, set);
        self.bases.record(from, ts, set);
    }

    /// Acceptor: the refusal of `refused`, proposed by `to` at `ts` — the
    /// accepted records it lacks, as a delta against the refused proposal
    /// itself, a base the proposer holds by construction.
    fn refusal(&self, to: ProcessId, ts: u64, refused: &ValueSet<Proven<A>>) -> ProvenUpdate<A> {
        let added = self.accepted.records().difference(refused);
        delta_for(&self.proposer_holds, to, ts, &added)
    }

    /// Proposer: the full set a refusal `update` stands for, its base our
    /// own snapshot of the refused proposal. `None`: a gap.
    fn resolve_reply(&mut self, update: &ProvenUpdate<A>) -> Option<ValueSet<Proven<A>>> {
        resolve_onto(update, |ts| self.sent.snapshot(ts), &mut self.resolver)
    }

    /// Proposer: the refusal `set` from `from` is joined, so its proofs
    /// are referenceable, by us and back at `from`, which shipped or
    /// referenced every one.
    fn consume_reply(&mut self, from: ProcessId, set: &ValueSet<Proven<A>>) {
        register_proofs(&mut self.resolver, set);
        note_held(&mut self.acceptor_holds, from, set);
    }
}

/// The snapshot fragment: the accepted records, then the resolver's
/// retained proofs least-recently-used first, so re-registering them in
/// that order reproduces the eviction order. Ids are *not* stored:
/// restoring recomputes each proof's content address, so a tampered
/// snapshot cannot alias one proof's id to another's bytes (the checksum
/// already catches accidents). Nor is the verified bit: a restored proof
/// is checked once more. The accepted values are rebuilt from the
/// records; the ledgers start empty — fresh ledgers send `Full` payloads
/// until peers reply again, while the resync fallback covers the peers'
/// stale claims about *us*.
impl<A: ProofAck> Wire for ProofPath<A> {
    fn encode(&self, w: &mut Writer) {
        let Self {
            accepted,
            resolver,
            // Sender watermarks are peer-relative and deliberately amnesiac across crashes.
            sent: _,
            acceptor_holds: _,
            // Delta bases are peer-relative; a restarted process resumes in full-set mode by
            // design.
            bases: _,
            proposer_holds: _,
        } = self;
        accepted.records().encode(w);
        let retained: Vec<Proof<A>> = resolver.entries().into_iter().map(|(_, p)| p).collect();
        retained.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let accepted = Valued::new(Wire::decode(r)?);
        let retained: Vec<Proof<A>> = Wire::decode(r)?;
        let mut resolver = ProofResolver::default();
        for proof in retained {
            resolver.restore(proof.id(), proof);
        }
        Ok(ProofPath {
            accepted,
            resolver,
            ..ProofPath::default()
        })
    }
}

/// What an acceptor answers a safe proposal with.
pub(crate) enum Reply<A: ProofAck> {
    /// The proposal did not resolve (a delta gap): ask for it in full.
    Resync,
    /// The proposal contains the accepted set, which is now the
    /// proposal: agree, with these values.
    Ack(ValueSet<A::Value>),
    /// The accepted set is not contained: refuse, with the accepted set
    /// as a delta against the refused proposal. The accepted set has
    /// joined the proposal.
    Nack(ProvenUpdate<A>),
}

/// A [`ProofPath`] with what checking a proven set takes from its
/// owner: the verifier, the quorum and the validator.
pub struct Proving<'a, A: ProofAck> {
    pub(crate) path: &'a mut ProofPath<A>,
    pub(crate) verifier: &'a mut CachedVerifier,
    pub(crate) quorum: usize,
    pub(crate) valid: fn(&A::Value) -> bool,
}

impl<A: ProofAck<Echoed: Signed> + Signed> Proving<'_, A> {
    /// Algorithm 10's `AllSafe`: every record's values pass the
    /// validator and its proof checks out — incremental. Per
    /// `(record, proof)` pair only the validator and the pair checks
    /// ([`ProofAck::covers`]: pure record comparisons, no serialization,
    /// no hashing) run; the expensive record-independent part of each
    /// *distinct* proof (`proof_valid`) is skipped for a proof the
    /// resolver holds as verified, looked up without touching the
    /// recency the snapshot writes. Nothing is recorded here: a set's
    /// proofs are marked verified when it is consumed. Within one call,
    /// records sharing a proof check it once (by [`ProofId`]).
    ///
    /// A record's own signature is covered by the proof verdict: the
    /// pair check demands that each ack echo the record under *full
    /// record equality* (signature bytes included), and `proof_valid`
    /// verifies every record every ack echoes — so a covered record's
    /// signature has been verified, by content, exactly once.
    ///
    /// Public for the verification-count tests; the `ack_req` and `nack`
    /// handlers are the real callers.
    pub fn all_safe(&mut self, set: &ValueSet<Proven<A>>) -> bool {
        let mut checked: BTreeSet<ProofId> = BTreeSet::new();
        for record in set.iter() {
            if !record.values().iter().all(self.valid) {
                return false;
            }
            if !record.proof.iter().all(|ack| ack.covers(&record.signed)) {
                return false;
            }
            let id = record.proof.id();
            if !checked.insert(id) || self.path.resolver.verified(id) {
                continue; // checked in this call, or verified before
            }
            if !proof_valid(self.verifier, self.quorum, &record.proof) {
                return false;
            }
        }
        true
    }

    /// The acceptor's half of an `ack_req` from `from` at `ts`: resolves
    /// `update`, checks it with [`Self::all_safe`] and, if it is safe,
    /// consumes it — it becomes a delta base, and its proofs become
    /// referenceable, by us and back at `from` — and answers it. `None`:
    /// an unsafe proposal, dropped.
    pub(crate) fn accept(
        &mut self,
        from: ProcessId,
        update: &ProvenUpdate<A>,
        ts: u64,
    ) -> Option<Reply<A>> {
        let Some(proposed) = self.path.resolve_proposal(from, update) else {
            // Unknown base or proof reference: a proposal reference can
            // outlive our bounded resolver window, so ask for it whole.
            return Some(Reply::Resync);
        };
        if !self.all_safe(&proposed) {
            return None;
        }
        let path = &mut *self.path;
        path.consume(from, ts, &proposed);
        let proposed = Valued::new(proposed);
        if path.accepted.values().is_subset(proposed.values()) {
            let values = proposed.values().clone();
            path.accepted = proposed;
            Some(Reply::Ack(values))
        } else {
            // The proposer reconstructs the union, which is exactly what
            // its grows check and join compute anyway.
            let accepted = path.refusal(from, ts, proposed.records());
            path.accepted.join_with(&proposed);
            Some(Reply::Nack(accepted))
        }
    }

    /// The proposer's half of a current `nack` from `from`: resolves the
    /// refusal against our own snapshot of the refused proposal and
    /// returns the accepted set to join if it grows `proposed`, `from` is
    /// `trusted` and it passes [`Self::all_safe`]. Its proofs are then
    /// registered and noted as held by `from`, which shipped or
    /// referenced every one. `None`: an invalid refusal — a gap in a
    /// reply included, which references only proofs we shipped against a
    /// snapshot we retain, so only a Byzantine sender causes it.
    pub(crate) fn refine(
        &mut self,
        from: ProcessId,
        update: &ProvenUpdate<A>,
        proposed: &ValueSet<A::Value>,
        trusted: bool,
    ) -> Option<Valued<A>> {
        let accepted = Valued::new(self.path.resolve_reply(update)?);
        let grows = !accepted.values().is_subset(proposed);
        if !(grows && trusted && self.all_safe(accepted.records())) {
            return None;
        }
        self.path.consume_reply(from, accepted.records());
        Some(accepted)
    }
}

/// The record-independent proof checks — exactly what the resolver's
/// verified bit stands for: quorum size, signer distinctness, and one
/// batched signature verification covering every ack *and* every
/// distinct signed record the acks echo. The acks of a quorum echo
/// mostly the same records, and record equality is identity, so each is
/// encoded (and its cache key hashed) once per proof, in first-echo
/// order. Verifying the echoes is what lets [`Proving::all_safe`]
/// certify covered records by membership alone.
fn proof_valid<A: ProofAck<Echoed: Signed> + Signed>(
    verifier: &mut CachedVerifier,
    quorum: usize,
    proof: &Proof<A>,
) -> bool {
    if proof.len() < quorum {
        return false;
    }
    let mut signers = BTreeSet::new();
    let mut echoed = BTreeSet::new();
    let mut obligations = Vec::new();
    for ack in proof {
        if !signers.insert(ack.signer()) {
            return false; // duplicate signer
        }
        obligations.push(ack.obligation());
        for record in ack.echo().iter().filter(|r| echoed.insert(*r)) {
            obligations.push(record.obligation());
        }
    }
    verifier.verify_all(&obligations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::testing::{proof, TestAck};
    use bgla_codec::{decode_payload, encode_payload};
    use bgla_crypto::ProofIdBuilder;

    /// Minimal proven record for unit tests: a value plus a proof of
    /// numbered test acks ([`crate::proof::testing`]).
    type Rec = Proven<TestAck>;

    fn rec(v: u64, acks: &[u64]) -> Rec {
        Rec {
            signed: v,
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
    fn shape(update: &ProvenUpdate<TestAck>) -> (Option<u64>, usize, usize, usize) {
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
        let mut tx: ProofPath<TestAck> = ProofPath::default();
        let s0 = set(&[rec(1, &[10]), rec(2, &[10])]);
        assert_eq!(shape(&tx.propose(10, 1, &s0)[9]), (None, 1, 0, 2));

        // Peer 9 consumes and replies: the shared proof becomes
        // referenceable and values stop traveling.
        tx.replied(9, 1);
        let s1 = s0.join(&set(&[rec(3, &[10])]));
        let u = tx.propose(10, 2, &s1).swap_remove(9);
        assert_eq!(shape(&u), (Some(1), 0, 1, 1), "shared proof by reference");
        // Receiver side: reconstruct through base + resolver.
        let mut rx: ProofPath<TestAck> = ProofPath::default();
        rx.consume(0, 1, &s0);
        let full = rx.resolve_proposal(0, &u).expect("no gap");
        assert_eq!(full, s1);
    }

    #[test]
    fn unknown_base_and_unknown_ref_are_gaps() {
        let mut rx: ProofPath<TestAck> = ProofPath::default();
        let bogus_base = ProvenUpdate::Delta {
            base_ts: 77,
            new: set(&[rec(1, &[1])]),
            refs: vec![],
        };
        assert!(rx.resolve_proposal(3, &bogus_base).is_none());

        let mut rx: ProofPath<TestAck> = ProofPath::default();
        rx.consume(3, 0, &ValueSet::new());
        let r = rec(1, &[1]);
        let unknown_ref = ProvenUpdate::Delta {
            base_ts: 0,
            refs: vec![r.proof.id()],
            new: set(&[r]),
        };
        assert!(
            rx.resolve_proposal(3, &unknown_ref).is_none(),
            "a referenced proof the resolver does not hold is a gap"
        );
    }

    #[test]
    fn refs_matching_no_record_are_not_shipped() {
        let mut rx: ProofPath<TestAck> = ProofPath::default();
        rx.consume(3, 0, &ValueSet::new());
        let u = ProvenUpdate::Delta {
            base_ts: 0,
            new: set(&[rec(1, &[1])]),
            refs: vec![bogus_id(0xAB)],
        };
        let full = rx.resolve_proposal(3, &u).expect("inline proof");
        assert_eq!(full.len(), 1);
        let table = ProvenUpdate::Table(u.table().into_owned());
        assert_eq!(shape(&table), (Some(0), 1, 0, 1), "inline, no refs");
    }

    #[test]
    fn resync_restores_full_payloads() {
        let mut tx: ProofPath<TestAck> = ProofPath::default();
        let s = set(&[rec(1, &[1])]);
        tx.propose(5, 1, &s);
        tx.replied(4, 1);
        assert!(tx.propose(5, 2, &s)[4].is_delta());
        tx.resync(4);
        assert!(!tx.propose(5, 3, &s)[4].is_delta());
    }

    #[test]
    fn reply_deltas_reference_the_proposers_own_proofs() {
        // Proposer P (id 0) sent us set s_p; we hold accepted = s_p ∪ ours.
        // The nack back to P references P's proof and ships ours inline.
        let mut rx: ProofPath<TestAck> = ProofPath::default();
        let p_rec = rec(1, &[10]);
        let our_rec = rec(2, &[20]);
        let s_p = set(std::slice::from_ref(&p_rec));
        rx.consume(0, 3, &s_p);
        let accepted = s_p.join(&set(std::slice::from_ref(&our_rec)));
        rx.accepted = Valued::new(accepted.clone());
        let u = rx.refusal(0, 3, &s_p);
        assert_eq!(shape(&u), (Some(3), 1, 0, 1), "our proof is new to P");
        // P resolves against its own snapshot.
        let mut tx: ProofPath<TestAck> = ProofPath::default();
        tx.propose(1, 3, &s_p);
        let full = tx.resolve_reply(&u).expect("no gap");
        assert_eq!(full, accepted);

        // A second nack after P re-proposed the union references our
        // proof back (P shipped it, so it holds it).
        rx.consume(0, 4, &accepted);
        let u2 = rx.refusal(0, 4, &accepted);
        assert_eq!(shape(&u2), (Some(4), 0, 0, 0));
        rx.accepted = Valued::new(accepted.join(&set(&[rec(9, &[20])])));
        let u3 = rx.refusal(0, 4, &accepted);
        assert_eq!(shape(&u3), (Some(4), 0, 1, 1));
        assert_eq!(
            u3.table().refs(),
            &[our_rec.proof.id()],
            "a proof P consumed travels back by reference"
        );
    }

    /// What each peer holds by reference stays its own: a reply makes
    /// the replied-to proposal the peer's base, and a nack's proofs
    /// referenceable to the nacker alone.
    #[test]
    fn a_broadcast_encodes_each_peer_by_what_it_holds() {
        let mut tx: ProofPath<TestAck> = ProofPath::default();
        let s0 = set(&[rec(1, &[10])]);
        tx.propose(3, 1, &s0);
        tx.replied(1, 1);
        tx.replied(2, 1);
        let s1 = s0.join(&set(&[rec(2, &[20]), rec(3, &[30])]));
        tx.consume_reply(2, &set(&[rec(2, &[20])]));
        let shapes: Vec<_> = tx.propose(3, 2, &s1).iter().map(shape).collect();
        assert_eq!(
            shapes,
            [(None, 3, 0, 3), (Some(1), 2, 0, 2), (Some(1), 1, 1, 2)]
        );
    }

    /// A reference costs the 16-byte id, not the proof; one proof under
    /// two records is said once, and each record costs its index. An
    /// echoed record costs its position.
    #[test]
    fn a_table_says_each_proof_once_and_a_reference_in_its_id() {
        let shared = proof(&[1, 2, 3, 4, 5, 6]);
        let a = Rec {
            signed: 1,
            proof: shared.clone(),
        };
        let b = Rec {
            signed: 2,
            proof: shared.clone(),
        };
        let full = ProvenUpdate::Full(set(&[a.clone(), b.clone()]));
        let records = 1 + 2 * (1 + 8);
        // The one echo, empty, names no record and spells no element:
        // one byte more than the proof alone says it in.
        assert_eq!(
            full.wire_size(),
            1 + records + 1 + shared.wire_size() + 1 + 1
        );
        let delta = ProvenUpdate::Delta {
            base_ts: 7,
            new: set(&[a, b]),
            refs: vec![shared.id()],
        };
        assert_eq!(delta.wire_size(), 1 + 1 + records + 1 + (1 + 16));
        // Acks that echo both records name them: two one-byte positions
        // and an empty rest instead of the set.
        let echo: ValueSet<u64> = [1, 2].into_iter().collect();
        let naming = Proof::new(
            (1..=6)
                .map(|n| TestAck {
                    echo: echo.clone(),
                    n,
                })
                .collect(),
        );
        let named = ProvenUpdate::Full(set(&[rec(1, &[]), rec(2, &[])].map(|r| Rec {
            proof: naming.clone(),
            ..r
        })));
        assert_eq!(echo.wire_size(), 1 + 2 * 8);
        assert_eq!(
            named.wire_size(),
            1 + records + 1 + (naming.wire_size() - echo.wire_size() + 4) + 1
        );
        for u in [full, delta, named] {
            let bytes = encode_payload(&u);
            assert_eq!(bytes.len(), u.wire_size());
            let back: ProvenUpdate<TestAck> = decode_payload(&bytes).unwrap();
            assert_eq!(encode_payload(&back), bytes);
            assert_eq!(back.is_delta(), u.is_delta());
            let ids = |u: &ProvenUpdate<TestAck>| -> Vec<_> {
                u.table().records().map(|(_, p)| p.map(Proof::id)).collect()
            };
            assert_eq!(ids(&back), ids(&u));
        }
    }

    /// `Default` asks nothing of the record type: a proven batch has no
    /// default, and its ledgers still start empty.
    #[test]
    fn ledgers_default_without_a_default_record() {
        use crate::gsbs::SignedBatch;
        use crate::safetying::SafeAck;
        let mut path = ProofPath::<SafeAck<SignedBatch<u64>>>::default();
        assert!(!path.propose(2, 1, &ValueSet::new())[1].is_delta());
        assert!(path.bases.base(1, 0).is_none());
    }

    /// A snapshot stores the retained proofs least-recently-used first
    /// and restoring puts them back in that order, so recency — not
    /// registration order — survives the round trip. Whether a proof
    /// was verified does not: a restored one is checked again.
    #[test]
    fn snapshot_keeps_the_resolver_recency_order() {
        let mut path: ProofPath<TestAck> = ProofPath::default();
        let [a, b, c] = [proof(&[1]), proof(&[2]), proof(&[3])];
        for p in [&a, &b, &c] {
            path.resolver.register(p.id(), p.clone());
        }
        assert!(path.resolver.resolve(a.id()).is_some());
        let ids = |path: &ProofPath<TestAck>| -> Vec<ProofId> {
            path.resolver
                .entries()
                .into_iter()
                .map(|(id, _)| id)
                .collect()
        };
        assert_eq!(ids(&path), [b.id(), c.id(), a.id()]);
        let back: ProofPath<TestAck> = decode_payload(&encode_payload(&path)).unwrap();
        assert_eq!(ids(&back), ids(&path));
        assert!(path.resolver.verified(a.id()));
        assert!(!back.resolver.verified(a.id()));
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
