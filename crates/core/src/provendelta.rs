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
//!   the peer *demonstrably holds* can be named by a
//!   [`bgla_simnet::PROOF_REF_BYTES`]-sized reference instead of
//!   re-shipped.
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
//! # Wire format (modeled)
//!
//! Per the byte-accounting contract on [`bgla_simnet::WireMessage`]:
//!
//! ```text
//! Full(set)                     : 1 (tag) + set bytes + Σ distinct-proof bytes
//! Delta { base_ts, new, refs }  : 1 (tag) + var(base_ts) + new bytes
//!                                 + Σ inline-distinct-proof bytes
//!                                 + |refs| × PROOF_REF_BYTES
//! ```

use crate::proof::{Proof, ProofAck};
use crate::valueset::{DeltaReceiver, DeltaSender, SetItem, SetUpdate, ValueSet};
use bgla_codec::{var_len, CodecError, Reader, Wire, Writer};
use bgla_crypto::{ProofId, ProofResolver};
use bgla_simnet::{ProcessId, ProofSizes, PROOF_REF_BYTES};
use std::collections::{BTreeMap, BTreeSet};

/// A signed record carrying an attached proof of safety — the element
/// type [`ProvenUpdate`] deltas over (SbS `ProvenValue`, GSbS
/// `ProvenBatch`).
///
/// `Ord`/`Eq` must ignore the attached proof — the record is the same
/// lattice element regardless of which quorum certified it, so
/// [`SetItem::EQ_IS_IDENTITY`] is `false` — which is what lets the
/// decoder swap a referenced proof handle in without disturbing set
/// order.
pub trait ProvenRecord: SetItem {
    /// The ack type of the attached proof.
    type Ack: ProofAck;

    /// The attached proof of safety.
    fn proof(&self) -> &Proof<Self::Ack>;

    /// The same record with `proof` attached instead (used by the
    /// decoder to attach the locally resolved handle).
    fn with_proof(&self, proof: Proof<Self::Ack>) -> Self;
}

/// A proven-set payload: the full set, or only the records added since a
/// base the receiver holds, with already-held proofs by reference. See
/// the module docs for semantics and the modeled wire format.
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
        /// `current ∖ base` — records inline; a record's proof ships
        /// inline too unless its id appears in `refs`.
        new: ValueSet<T>,
        /// Ids (among `new`'s proofs) the receiver is assumed to hold —
        /// shipped as [`PROOF_REF_BYTES`]-sized references.
        refs: Vec<ProofId>,
    },
}

/// Codec form mirrors [`SetUpdate`]'s: a tag byte, then the variant
/// fields. Referenced proof ids travel verbatim — a reference is an
/// opaque handle, resolved (and thereby validated) by the receiver's
/// [`ProofResolver`], never trusted structurally.
impl<T: ProvenRecord + Wire> Wire for ProvenUpdate<T>
where
    T::Ack: Wire,
{
    fn encode(&self, w: &mut Writer) {
        match self {
            ProvenUpdate::Full(set) => {
                w.u8(0);
                set.encode(w);
            }
            ProvenUpdate::Delta { base_ts, new, refs } => {
                w.u8(1);
                w.var(*base_ts);
                new.encode(w);
                refs.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(ProvenUpdate::Full(ValueSet::decode(r)?)),
            1 => Ok(ProvenUpdate::Delta {
                base_ts: r.var()?,
                new: ValueSet::decode(r)?,
                refs: Vec::decode(r)?,
            }),
            _ => Err(CodecError::Invalid("proven update tag")),
        }
    }
}

impl<T: ProvenRecord> ProvenUpdate<T> {
    /// Modeled payload size and proof accounting in one walk (see the
    /// wire format in the module docs): proofs shared by several records
    /// are deduplicated by [`ProofId`] — each id's cached byte size
    /// counted once for the interned figure, once per record for the
    /// flat figure — and referenced ones cost a reference. Message-level
    /// framing (`ts`, `round`) is the embedding message's to add.
    pub fn metered(&self) -> (usize, ProofSizes) {
        let (header, records, refs) = match self {
            ProvenUpdate::Full(set) => (1, set, &[][..]),
            ProvenUpdate::Delta { base_ts, new, refs } => (1 + var_len(*base_ts), new, &refs[..]),
        };
        let by_ref: BTreeSet<ProofId> = refs.iter().copied().collect();
        let mut proofs = ProofSizes::default();
        let mut seen: BTreeSet<ProofId> = BTreeSet::new();
        for record in records.iter() {
            let proof = record.proof();
            proofs.refs += 1;
            proofs.flat_bytes += proof.wire_size() as u64;
            if !by_ref.contains(&proof.id()) && seen.insert(proof.id()) {
                proofs.distinct += 1;
                proofs.interned_bytes += proof.wire_size() as u64;
            }
        }
        // Every ref entry costs wire bytes, matched or not —
        // Byzantine junk refs are paid for by their sender.
        proofs.by_ref = refs.len() as u64;
        proofs.ref_bytes = (refs.len() * PROOF_REF_BYTES) as u64;
        let bytes = header
            + records.wire_size()
            + proofs.interned_bytes as usize
            + proofs.ref_bytes as usize;
        (bytes, proofs)
    }

    /// Modeled payload size in bytes.
    pub fn wire_size(&self) -> usize {
        self.metered().0
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

/// The distinct proof ids of `new` that `to` demonstrably holds, sorted
/// (deterministic wire order).
fn held_refs<T: ProvenRecord>(
    held: &BTreeMap<ProcessId, BTreeSet<ProofId>>,
    to: ProcessId,
    new: &ValueSet<T>,
) -> Vec<ProofId> {
    let Some(held) = held.get(&to) else {
        return Vec::new();
    };
    let ids: BTreeSet<ProofId> = new
        .iter()
        .map(|r| r.proof().id())
        .filter(|id| held.contains(id))
        .collect();
    ids.into_iter().collect()
}

/// Rebuilds the full set `update` stands for: `base_at(base_ts) ∪ new`,
/// with locally resolved handles attached for referenced proofs. `None`
/// is a gap: a base `base_at` does not hold, or a referenced id the
/// resolver does not hold.
fn resolve_onto<'a, T: ProvenRecord + 'a>(
    update: &ProvenUpdate<T>,
    base_at: impl FnOnce(u64) -> Option<&'a ValueSet<T>>,
    resolver: &mut ProofResolver<Proof<T::Ack>>,
) -> Option<ValueSet<T>> {
    let (base, new, refs) = match update {
        ProvenUpdate::Full(set) => return Some(set.clone()),
        ProvenUpdate::Delta { base_ts, new, refs } => (base_at(*base_ts)?, new, refs),
    };
    let ref_set: BTreeSet<ProofId> = refs.iter().copied().collect();
    if ref_set.is_empty() {
        return Some(base.join(new));
    }
    let mut out = Vec::with_capacity(new.len());
    for record in new.iter() {
        let id = record.proof().id();
        if ref_set.contains(&id) {
            // Referenced: the proof did not travel — reattach our own
            // handle or report the gap.
            out.push(record.with_proof(resolver.resolve(id)?));
        } else {
            out.push(record.clone());
        }
    }
    Some(base.join(&out.into_iter().collect()))
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
/// demonstrably holds.
#[derive(Debug, Default)]
pub struct ProvenDeltaSender<T: ProvenRecord> {
    ledger: DeltaSender<T>,
    /// Peer → proof ids it demonstrably delivered (see module docs).
    known_held: BTreeMap<ProcessId, BTreeSet<ProofId>>,
}

impl<T: ProvenRecord> ProvenDeltaSender<T> {
    /// Fresh sender state: no snapshots, no reply seen.
    pub fn new() -> Self {
        ProvenDeltaSender {
            ledger: DeltaSender::new(),
            known_held: BTreeMap::new(),
        }
    }

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
            SetUpdate::Full(set) => ProvenUpdate::Full(set),
            SetUpdate::Delta { base_ts, added } => ProvenUpdate::Delta {
                base_ts,
                refs: held_refs(&self.known_held, to, &added),
                new: added,
            },
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
/// delta-encoded nacks back to it).
#[derive(Debug, Default)]
pub struct ProvenDeltaReceiver<T: ProvenRecord> {
    bases: DeltaReceiver<T>,
    peer_proofs: BTreeMap<ProcessId, BTreeSet<ProofId>>,
}

impl<T: ProvenRecord> ProvenDeltaReceiver<T> {
    /// Fresh receiver state.
    pub fn new() -> Self {
        ProvenDeltaReceiver {
            bases: DeltaReceiver::new(),
            peer_proofs: BTreeMap::new(),
        }
    }

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
        let new = current.difference(base);
        let refs = held_refs(&self.peer_proofs, to, &new);
        ProvenUpdate::Delta { base_ts, new, refs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgla_crypto::ProofIdBuilder;

    /// Minimal proven record for unit tests: a value plus a proof of
    /// `u64` "acks" (the `ProofAck for u64` test impl in
    /// [`crate::proof`]).
    #[derive(Debug, Clone)]
    struct Rec {
        v: u64,
        proof: Proof<u64>,
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
    impl SetItem for Rec {
        const EQ_IS_IDENTITY: bool = false;
        fn wire_size(&self) -> usize {
            8
        }
    }
    impl ProvenRecord for Rec {
        type Ack = u64;
        fn proof(&self) -> &Proof<u64> {
            &self.proof
        }
        fn with_proof(&self, proof: Proof<u64>) -> Self {
            Rec { v: self.v, proof }
        }
    }

    fn rec(v: u64, acks: &[u64]) -> Rec {
        Rec {
            v,
            proof: Proof::new(acks.to_vec()),
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

    #[test]
    fn first_contact_is_full_and_replies_enable_deltas() {
        let mut tx: ProvenDeltaSender<Rec> = ProvenDeltaSender::new();
        let mut resolver: ProofResolver<Proof<u64>> = ProofResolver::default();
        let s0 = set(&[rec(1, &[10]), rec(2, &[10])]);
        tx.record_broadcast(1, &s0);
        assert!(matches!(tx.encode_for(9, 1, &s0), ProvenUpdate::Full(_)));

        // Peer 9 consumes and replies: the shared proof becomes
        // referenceable and values stop traveling.
        tx.record_reply(9, 1);
        let s1 = s0.join(&set(&[rec(3, &[10])]));
        tx.record_broadcast(2, &s1);
        let u = tx.encode_for(9, 2, &s1);
        match &u {
            ProvenUpdate::Delta { base_ts, new, refs } => {
                assert_eq!(*base_ts, 1);
                assert_eq!(new.len(), 1);
                assert_eq!(refs.len(), 1, "shared proof travels as a reference");
            }
            other => panic!("expected delta, got {other:?}"),
        }
        // Receiver side: reconstruct through base + resolver.
        let mut rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::new();
        register_proofs(&mut resolver, &s0);
        rx.record(0, 1, &s0);
        let full = rx.resolve(0, &u, &mut resolver).expect("no gap");
        assert_eq!(full, s1);
    }

    #[test]
    fn unknown_base_and_unknown_ref_are_gaps() {
        let rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::new();
        let mut resolver: ProofResolver<Proof<u64>> = ProofResolver::default();
        let bogus_base = ProvenUpdate::Delta {
            base_ts: 77,
            new: set(&[rec(1, &[1])]),
            refs: vec![],
        };
        assert!(rx.resolve(3, &bogus_base, &mut resolver).is_none());

        let mut rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::new();
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
    fn junk_refs_matching_no_record_are_ignored() {
        let mut rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::new();
        let mut resolver: ProofResolver<Proof<u64>> = ProofResolver::default();
        rx.record(3, 0, &ValueSet::new());
        let u = ProvenUpdate::Delta {
            base_ts: 0,
            new: set(&[rec(1, &[1])]),
            refs: vec![bogus_id(0xAB)],
        };
        let full = rx.resolve(3, &u, &mut resolver).expect("inline proof");
        assert_eq!(full.len(), 1);
        // ...but they still cost the sender wire bytes.
        let (_, proofs) = u.metered();
        assert_eq!(proofs.ref_bytes, PROOF_REF_BYTES as u64);
        assert_eq!(proofs.distinct, 1, "inline proof still shipped");
    }

    #[test]
    fn reset_peer_restores_full_payloads() {
        let mut tx: ProvenDeltaSender<Rec> = ProvenDeltaSender::new();
        let s = set(&[rec(1, &[1])]);
        tx.record_broadcast(1, &s);
        tx.record_reply(4, 1);
        assert!(matches!(
            tx.encode_for(4, 2, &s),
            ProvenUpdate::Delta { .. }
        ));
        tx.reset_peer(4);
        assert!(matches!(tx.encode_for(4, 2, &s), ProvenUpdate::Full(_)));
    }

    #[test]
    fn reply_deltas_reference_the_proposers_own_proofs() {
        // Proposer P (id 0) sent us set s_p; we hold accepted = s_p ∪ ours.
        // The nack back to P references P's proof and ships ours inline.
        let mut rx: ProvenDeltaReceiver<Rec> = ProvenDeltaReceiver::new();
        let p_rec = rec(1, &[10]);
        let our_rec = rec(2, &[20]);
        let s_p = set(std::slice::from_ref(&p_rec));
        rx.record(0, 3, &s_p);
        let accepted = s_p.join(&set(std::slice::from_ref(&our_rec)));
        let u = rx.encode_reply(0, 3, &s_p, &accepted);
        match &u {
            ProvenUpdate::Delta { base_ts, new, refs } => {
                assert_eq!(*base_ts, 3);
                assert_eq!(new.as_slice(), std::slice::from_ref(&our_rec));
                assert!(refs.is_empty(), "our proof is new to P: inline");
            }
            other => panic!("expected delta, got {other:?}"),
        }
        // P resolves against its own snapshot.
        let mut tx: ProvenDeltaSender<Rec> = ProvenDeltaSender::new();
        let mut resolver: ProofResolver<Proof<u64>> = ProofResolver::default();
        tx.record_broadcast(3, &s_p);
        let full = tx.resolve_reply(&u, &mut resolver).expect("no gap");
        assert_eq!(full, accepted);

        // A second nack after P re-proposed the union references our
        // proof back (P shipped it, so it holds it).
        rx.record(0, 4, &accepted);
        let u2 = rx.encode_reply(0, 4, &accepted, &accepted);
        match &u2 {
            ProvenUpdate::Delta { new, refs, .. } => {
                assert!(new.is_empty());
                assert!(refs.is_empty());
            }
            other => panic!("expected delta, got {other:?}"),
        }
        let grown = accepted.join(&set(&[rec(9, &[20])]));
        let u3 = rx.encode_reply(0, 4, &accepted, &grown);
        match &u3 {
            ProvenUpdate::Delta { new, refs, .. } => {
                assert_eq!(new.len(), 1);
                assert_eq!(
                    refs,
                    &[our_rec.proof.id()],
                    "a proof P consumed travels back by reference"
                );
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    /// Peers on one base share the new records of a broadcast; what each
    /// holds by reference stays its own.
    #[test]
    fn broadcast_takes_one_difference_per_base() {
        let mut tx: ProvenDeltaSender<Rec> = ProvenDeltaSender::new();
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
        assert!(matches!(all[0], ProvenUpdate::Full(_)));
        match (&all[1], &all[2]) {
            (
                ProvenUpdate::Delta {
                    new: a, refs: none, ..
                },
                ProvenUpdate::Delta {
                    new: b, refs: one, ..
                },
            ) => {
                assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
                assert_eq!((none.len(), one.len()), (0, 1));
            }
            other => panic!("expected two deltas, got {other:?}"),
        }
    }

    #[test]
    fn metered_counts_refs_not_proofs() {
        // 6 acks × 8 bytes: a proof bigger than PROOF_REF_BYTES, so the
        // delta arm is genuinely cheaper.
        let shared = Proof::new(vec![1u64, 2, 3, 4, 5, 6]);
        let a = Rec {
            v: 1,
            proof: shared.clone(),
        };
        let b = Rec {
            v: 2,
            proof: shared.clone(),
        };
        let full = ProvenUpdate::Full(set(&[a.clone(), b.clone()]));
        let (full_bytes, fp) = full.metered();
        assert_eq!(fp.distinct, 1);
        assert_eq!(fp.refs, 2);
        assert_eq!(fp.by_ref, 0);
        assert_eq!(full_bytes, 1 + (1 + 16) + shared.wire_size());

        let delta = ProvenUpdate::Delta {
            base_ts: 7,
            new: set(&[a, b]),
            refs: vec![shared.id()],
        };
        let (delta_bytes, dp) = delta.metered();
        assert_eq!(dp.distinct, 0, "referenced proof not shipped inline");
        assert_eq!(dp.by_ref, 1);
        assert_eq!(dp.ref_bytes, PROOF_REF_BYTES as u64);
        assert_eq!(dp.flat_bytes, 2 * shared.wire_size() as u64);
        assert_eq!(delta_bytes, 1 + 1 + (1 + 16) + PROOF_REF_BYTES);
        assert!(delta_bytes < full_bytes);
    }
}
