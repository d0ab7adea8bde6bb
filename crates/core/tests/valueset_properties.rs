//! Property-based testing of `ValueSet`: the join-semilattice laws, full
//! behavioral agreement with the `BTreeSet` reference it replaced, delta
//! encode/decode round-trips and proof-identity preservation across
//! joins — sampled over arbitrary vectors, like the algorithm property
//! suites alongside this file. Each set property runs over both kinds of
//! element the algorithms ship: one whose `==` is identity (`u64`) and
//! one carrying an attachment `==` ignores ([`Tagged`], the shape of a
//! proven record).

use bgla_codec::{encode_payload, CodecError, Reader, Wire, Writer};
use bgla_core::proof::Proof;
use bgla_core::sbs::{ProvenValue, SafeAckBody, SignedSafeAck, SignedValue};
use bgla_core::valueset::{DeltaReceiver, DeltaSender, SetUpdate};
use bgla_core::{SetItem, ValueSet};
use bgla_crypto::Keypair;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A record ordered and compared by `key` alone; `tag` rides along the
/// way a proof rides on a proven value.
#[derive(Debug, Clone)]
struct Tagged {
    key: u64,
    tag: u64,
}

impl PartialEq for Tagged {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Tagged {}
impl PartialOrd for Tagged {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tagged {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}
impl Wire for Tagged {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.key);
        w.u64(self.tag);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Tagged {
            key: r.u64()?,
            tag: r.u64()?,
        })
    }
}
impl SetItem for Tagged {
    const EQ_IS_IDENTITY: bool = false;
}

/// What the properties need of an element: a way to make one from a
/// sampled key (`tag` says which set it is made for) and to read both
/// back.
trait Item: SetItem + std::fmt::Debug {
    fn of(key: u64, tag: u64) -> Self;
    fn key(&self) -> u64;
    /// The tag the element still carries; `None` when it carries none.
    fn tag(&self) -> Option<u64>;
}
impl Item for u64 {
    fn of(key: u64, _tag: u64) -> Self {
        key
    }
    fn key(&self) -> u64 {
        *self
    }
    fn tag(&self) -> Option<u64> {
        None
    }
}
impl Item for Tagged {
    fn of(key: u64, tag: u64) -> Self {
        Tagged { key, tag }
    }
    fn key(&self) -> u64 {
        self.key
    }
    fn tag(&self) -> Option<u64> {
        Some(self.tag)
    }
}

fn set_of<T: Item>(keys: &[u64], tag: u64) -> ValueSet<T> {
    keys.iter().map(|&k| T::of(k, tag)).collect()
}

fn keys<T: Item>(set: &ValueSet<T>) -> Vec<u64> {
    set.iter().map(Item::key).collect()
}

fn vs(v: &[u64]) -> ValueSet<u64> {
    set_of(v, 0)
}

/// Folds sampled keys into a domain small enough that two samples
/// overlap, contain one another and truly merge — uniform `u64`s never
/// meet, and the join's fast paths are where the item kinds differ.
fn near(keys: Vec<u64>) -> Vec<u64> {
    keys.into_iter().map(|k| k % 16).collect()
}

/// The semilattice laws: idempotent, commutative, associative, `⊥` the
/// identity, and the order agreeing with the join (`a ⊆ b ⟺ a ∪ b = b`).
fn semilattice_laws<T: Item>(a: &[u64], b: &[u64], c: &[u64]) {
    let (a, b, c) = (set_of::<T>(a, 1), set_of::<T>(b, 2), set_of::<T>(c, 3));
    assert_eq!(a.join(&a), a.clone());
    assert_eq!(a.join(&b), b.join(&a));
    assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
    assert_eq!(a.join(&ValueSet::new()), a.clone());
    assert_eq!(a.is_subset(&b), a.join(&b) == b);
}

/// Every observable operation agrees with the `BTreeSet` reference, and
/// an element present on both sides of a join stays `self`'s.
fn agrees_with_reference<T: Item>(a: &[u64], b: &[u64], probe: u64) {
    let (ra, rb): (BTreeSet<u64>, BTreeSet<u64>) =
        (a.iter().copied().collect(), b.iter().copied().collect());
    let (va, vb) = (set_of::<T>(a, 1), set_of::<T>(b, 2));
    assert_eq!(va.len(), ra.len());
    assert_eq!(va.is_empty(), ra.is_empty());
    assert_eq!(va.contains(&T::of(probe, 9)), ra.contains(&probe));
    assert_eq!(va.is_subset(&vb), ra.is_subset(&rb));
    assert_eq!(vb.is_subset(&va), rb.is_subset(&ra));
    // Union / difference contents, and whose representatives they are.
    let joined = va.join(&vb);
    assert_eq!(keys(&joined), ra.union(&rb).copied().collect::<Vec<u64>>());
    for x in joined.iter() {
        let own = if ra.contains(&x.key()) { 1 } else { 2 };
        assert!(x.tag().is_none_or(|tag| tag == own), "{:?}", x);
    }
    let diff = va.difference(&vb);
    assert_eq!(
        keys(&diff),
        ra.difference(&rb).copied().collect::<Vec<u64>>()
    );
    assert!(diff.iter().all(|x| x.tag().is_none_or(|tag| tag == 1)));
    // Iteration order and equality semantics.
    assert_eq!(keys(&va), ra.iter().copied().collect::<Vec<u64>>());
    assert_eq!(va == vb, ra == rb);
    // Comparison order matches (both lexicographic over sorted elems).
    assert_eq!(va.cmp(&vb), ra.cmp(&rb));
}

/// Incremental insert matches reference insert, including the
/// copy-on-write path (a live clone must never observe the write).
fn insert_agrees<T: Item>(a: &[u64], extra: &[u64]) {
    let mut reference: BTreeSet<u64> = a.iter().copied().collect();
    let mut set = set_of::<T>(a, 1);
    let frozen = set.clone();
    let frozen_reference = reference.clone();
    for x in extra {
        assert_eq!(set.insert(T::of(*x, 2)), reference.insert(*x));
    }
    assert_eq!(keys(&set), reference.iter().copied().collect::<Vec<u64>>());
    assert_eq!(
        keys(&frozen),
        frozen_reference.iter().copied().collect::<Vec<u64>>(),
        "CoW leaked into a clone"
    );
}

/// Cached wire size always equals the encoding, through every operation
/// that builds one set from another.
fn wire_size_matches<T: Item>(a: &[u64], b: &[u64]) {
    let exact = |set: &ValueSet<T>| {
        assert_eq!(set.wire_size(), encode_payload(set).len());
    };
    let (a, b) = (set_of::<T>(a, 1), set_of::<T>(b, 2));
    let mut set = a.clone();
    set.join_with(&b);
    exact(&set);
    exact(&set.difference(&a));
    set.retain(|x| x.key() % 3 != 0);
    exact(&set);
    for x in b.iter() {
        set.insert(x.clone());
    }
    exact(&set);
}

/// Delta round-trip: for any base ⊆-chain step, encode at the
/// sender, resolve at the receiver, recover the refined set exactly.
fn delta_roundtrips<T: Item>(base: &[u64], additions: &[u64]) {
    let base = set_of::<T>(base, 1);
    let refined = base.join(&set_of(additions, 2));
    let mut tx: DeltaSender<T> = DeltaSender::default();
    let mut rx: DeltaReceiver<T> = DeltaReceiver::default();
    // ts 0: first contact — must be Full, resolves to the base.
    tx.record_broadcast(0, &base);
    let u0 = tx.encode_for(3, 0, &base);
    assert!(matches!(u0, SetUpdate::Full(_)));
    let r0 = rx.resolve(7, &u0).expect("full always resolves");
    assert_eq!(&r0, &base);
    rx.record(7, 0, &r0);
    tx.record_reply(3, 0);
    // ts 1: refinement — delta against ts 0, resolving to `refined`.
    tx.record_broadcast(1, &refined);
    let u1 = tx.encode_for(3, 1, &refined);
    match &u1 {
        SetUpdate::Delta { base_ts, added } => {
            assert_eq!(*base_ts, 0);
            assert_eq!(added.clone(), refined.difference(&base));
            // The delta never re-ships base values.
            assert!(added.iter().all(|v| !base.contains(v)));
        }
        SetUpdate::Full(_) => panic!("expected a delta"),
    }
    let r1 = rx.resolve(7, &u1).expect("recorded base resolves");
    assert_eq!(r1, refined);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn join_is_a_semilattice(a: Vec<u64>, b: Vec<u64>, c: Vec<u64>) {
        let (a, b, c) = (near(a), near(b), near(c));
        semilattice_laws::<u64>(&a, &b, &c);
        semilattice_laws::<Tagged>(&a, &b, &c);
    }

    #[test]
    fn agrees_with_btreeset_reference(a: Vec<u64>, b: Vec<u64>, probe: u64) {
        let (a, b, probe) = (near(a), near(b), probe % 16);
        agrees_with_reference::<u64>(&a, &b, probe);
        agrees_with_reference::<Tagged>(&a, &b, probe);
    }

    #[test]
    fn insert_agrees_with_reference(a: Vec<u64>, extra: Vec<u64>) {
        let (a, extra) = (near(a), near(extra));
        insert_agrees::<u64>(&a, &extra);
        insert_agrees::<Tagged>(&a, &extra);
    }

    #[test]
    fn wire_size_matches_recomputation(a: Vec<u64>, b: Vec<u64>) {
        let (a, b) = (near(a), near(b));
        wire_size_matches::<u64>(&a, &b);
        wire_size_matches::<Tagged>(&a, &b);
        let set = vs(&a).join(&vs(&b));
        prop_assert_eq!(set.wire_size(), bgla_codec::encode_payload(&set).len());
    }

    #[test]
    fn delta_roundtrip(base: Vec<u64>, additions: Vec<u64>) {
        let (base, additions) = (near(base), near(additions));
        delta_roundtrips::<u64>(&base, &additions);
        delta_roundtrips::<Tagged>(&base, &additions);
    }

    /// Delta encoding never carries more values (or more encoded bytes)
    /// than the full set it stands for.
    #[test]
    fn delta_never_larger_than_full(base: Vec<u64>, additions: Vec<u64>) {
        let base = vs(&base);
        let refined = base.join(&vs(&additions));
        let mut tx: DeltaSender<u64> = DeltaSender::default();
        tx.record_broadcast(0, &base);
        tx.record_reply(1, 0);
        tx.record_broadcast(1, &refined);
        let delta = tx.encode_for(1, 1, &refined);
        let full = SetUpdate::Full(refined.clone());
        prop_assert!(delta.carried() <= full.carried());
        prop_assert!(delta.wire_size() <= full.wire_size() + 8, "delta header overhead exceeded its savings bound");
    }
}

/// Stateful protocol property: one proposer refining against several
/// acceptors under randomly interleaved refine / deliver / ack / stale-
/// ack / first-contact / bogus-delta operations, checked against a
/// full-set oracle (the per-timestamp proposal snapshots).
///
/// Pins the three load-bearing rules of the delta pipeline:
///
/// 1. **Resolvability** — every update a *correct* sender encodes
///    resolves at the receiver, and to exactly the oracle snapshot of
///    its timestamp (the sender's base-window fallback is what makes
///    this hold even when the receiver pruned old bases);
/// 2. **Delta exactness** — a delta carries exactly
///    `snapshot(ts) ∖ snapshot(base_ts)` for a `base_ts` the receiver
///    really replied to;
/// 3. **Fallback-on-gap** — a delta against a base the receiver never
///    consumed (only Byzantine senders produce one) resolves to `None`
///    and is dropped, never mis-joined.
#[test]
fn stateful_delta_protocol_against_full_set_oracle() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const PEERS: usize = 4;
    const STEPS: usize = 400;

    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tx: DeltaSender<u64> = DeltaSender::default();
        let mut rx: Vec<DeltaReceiver<u64>> =
            (0..PEERS).map(|_| DeltaReceiver::default()).collect();

        // Oracle state.
        let mut current = vs(&[0]);
        let mut ts = 0u64;
        let mut snapshots: Vec<ValueSet<u64>> = vec![current.clone()];
        let mut consumed: Vec<Vec<u64>> = vec![Vec::new(); PEERS]; // ts list per peer
        let mut next_value = 1u64;

        tx.record_broadcast(0, &current);
        for step in 0..STEPS {
            match rng.gen_range(0..10u32) {
                // Refine: the proposal grows, a new snapshot exists.
                0..=2 => {
                    for _ in 0..rng.gen_range(1..4u32) {
                        current.insert(next_value);
                        next_value += 1;
                    }
                    ts += 1;
                    snapshots.push(current.clone());
                    tx.record_broadcast(ts, &current);
                }
                // Deliver the current proposal to a random peer (this
                // models the ack_req send; lost/late requests are
                // modeled simply by never delivering).
                3..=6 => {
                    let p = rng.gen_range(0..PEERS);
                    let update = tx.encode_for(p, ts, &current);
                    let resolved = rx[p].resolve(p, &update).unwrap_or_else(|| {
                        panic!("seed {seed} step {step}: correct sender caused a gap")
                    });
                    assert_eq!(
                        resolved, current,
                        "seed {seed} step {step}: resolve != oracle snapshot"
                    );
                    if let SetUpdate::Delta { base_ts, added } = &update {
                        assert!(
                            consumed[p].contains(base_ts),
                            "seed {seed} step {step}: delta against a base peer {p} never consumed"
                        );
                        assert_eq!(
                            added.clone(),
                            current.difference(&snapshots[*base_ts as usize]),
                            "seed {seed} step {step}: delta is not snapshot(ts) \\ snapshot(base)"
                        );
                    }
                    rx[p].record(p, ts, &resolved);
                    if !consumed[p].contains(&ts) {
                        consumed[p].push(ts);
                    }
                }
                // The peer's reply (ack/nack) arrives: possibly for an
                // old consumed timestamp (replies reorder in flight).
                7 | 8 => {
                    let p = rng.gen_range(0..PEERS);
                    if let Some(&reply_ts) =
                        consumed[p].get(rng.gen_range(0..consumed[p].len().max(1)))
                    {
                        tx.record_reply(p, reply_ts);
                    }
                }
                // Byzantine interference: a delta whose base this peer
                // never consumed must be a detected gap; a reply claim
                // for a timestamp never broadcast must be ignored.
                _ => {
                    let p = rng.gen_range(0..PEERS);
                    let bogus = SetUpdate::Delta {
                        base_ts: 1_000_000 + step as u64,
                        added: current.clone(),
                    };
                    assert!(
                        rx[p].resolve(p, &bogus).is_none(),
                        "seed {seed} step {step}: unconsumed base resolved"
                    );
                    tx.record_reply(p, 2_000_000 + step as u64);
                }
            }
        }

        // First contact stays Full even late in the stream.
        let fresh = PEERS; // an id no reply was ever recorded for
        assert!(matches!(
            tx.encode_for(fresh, ts, &current),
            SetUpdate::Full(_)
        ));
        let mut fresh_rx: DeltaReceiver<u64> = DeltaReceiver::default();
        let u = tx.encode_for(fresh, ts, &current);
        assert_eq!(fresh_rx.resolve(fresh, &u), Some(current.clone()));
        fresh_rx.record(fresh, ts, &current);
    }
}

/// Decisions produced through ValueSet survive conversion round-trips
/// (`BTreeSet` ↔ `ValueSet`) without loss — the embedding the RSM and
/// examples rely on.
#[test]
fn conversion_roundtrip() {
    let reference: BTreeSet<u64> = [9, 1, 5, 1, 3].into_iter().collect();
    let set: ValueSet<u64> = ValueSet::from(reference.clone());
    let back: BTreeSet<u64> = set.iter().copied().collect();
    assert_eq!(reference, back);
    let owned: Vec<u64> = set.into_iter().collect();
    assert_eq!(owned, vec![1, 3, 5, 9]);
}

/// Builds a set of proven values certified by one shared proof — the
/// shape one safetying exchange produces (the ack covers every value).
fn proven_set(values: &[u64], signer: usize) -> ValueSet<ProvenValue<u64>> {
    let kp = Keypair::for_process(signer);
    let svs: Vec<SignedValue<u64>> = values
        .iter()
        .map(|&v| SignedValue::sign(v, signer, &kp))
        .collect();
    let body = SafeAckBody {
        rcvd: svs.iter().cloned().collect(),
        conflicts: vec![],
    };
    let proof = Proof::new(vec![SignedSafeAck::sign(body, signer, &kp)]);
    svs.into_iter()
        .map(|sv| ProvenValue {
            signed: sv,
            proof: proof.clone(),
        })
        .collect()
}

/// Joins keep `self`'s representative for equal elements, so an
/// element's attached proof — and therefore its interned `ProofId` and
/// any cached verification verdicts — survives any number of merges.
#[test]
fn join_preserves_proof_identity() {
    // `a` and `b` both contain value 2, certified by *different* proofs
    // (ProvenValue ordering ignores the proof, so they compare equal).
    let a = proven_set(&[1, 2], 0);
    let b = proven_set(&[2, 3], 0);
    let a_proof = a.as_slice()[0].proof.id();
    let b_proof = b.as_slice()[0].proof.id();
    assert_ne!(a_proof, b_proof, "distinct proofs by construction");

    let joined = a.join(&b);
    assert_eq!(joined.len(), 3);
    for pv in joined.iter() {
        let expected = match pv.signed.value {
            1 | 2 => a_proof, // the shared value 2 keeps `a`'s proof
            _ => b_proof,
        };
        assert_eq!(pv.proof.id(), expected, "value {}", pv.signed.value);
    }
    // And symmetrically: b.join(&a) keeps b's proof for the shared value.
    let joined_rev = b.join(&a);
    assert_eq!(
        joined_rev
            .iter()
            .find(|pv| pv.signed.value == 2)
            .unwrap()
            .proof
            .id(),
        b_proof
    );
}

/// The record-subset shape: `self ⊂ other` with the shared element
/// carrying a *different* proof on each side. The join must not adopt
/// the peer's allocation wholesale — self's representative (and its
/// proof identity) survives even on this fast-path-tempting shape.
#[test]
fn join_preserves_proof_identity_on_subset() {
    let small = proven_set(&[2], 0);
    let big = proven_set(&[1, 2, 3], 0);
    let small_proof = small.as_slice()[0].proof.id();
    let big_proof = big.as_slice()[0].proof.id();
    assert_ne!(small_proof, big_proof);
    assert!(small.is_subset(&big), "record-subset by construction");

    let mut joined = small.clone();
    assert!(joined.join_with(&big), "the join grows");
    assert_eq!(joined.len(), 3);
    for pv in joined.iter() {
        let expected = if pv.signed.value == 2 {
            small_proof
        } else {
            big_proof
        };
        assert_eq!(pv.proof.id(), expected, "value {}", pv.signed.value);
    }
}

/// Structurally identical proofs get the same `ProofId` through
/// different allocations — including under ack reordering (a proof is a
/// multiset of acks).
#[test]
fn proof_identity_is_structural() {
    let kp = Keypair::for_process(1);
    let sv = SignedValue::sign(7u64, 1, &kp);
    let mk_ack = |tag: u64| {
        let body = SafeAckBody {
            rcvd: [sv.clone(), SignedValue::sign(tag, 1, &kp)]
                .into_iter()
                .collect(),
            conflicts: vec![],
        };
        SignedSafeAck::sign(body, 1, &kp)
    };
    let (x, y) = (mk_ack(10), mk_ack(20));
    let p1 = Proof::new(vec![x.clone(), y.clone()]);
    let p2 = Proof::new(vec![y, x]);
    assert_eq!(p1.id(), p2.id());
    assert_eq!(p1, p2);
}

/// One set type, two join disciplines, told apart by the item alone.
/// Proven records: a several-element proper subset joined with its
/// superset keeps every one of its own proof handles and shares nothing
/// with the peer.
#[test]
fn proven_subset_joined_with_superset_keeps_its_own_handles() {
    let small = proven_set(&[2, 3], 0);
    let big = proven_set(&[1, 2, 3, 4], 0);
    let (small_proof, big_proof) = (small.as_slice()[0].proof.id(), big.as_slice()[0].proof.id());
    assert_ne!(small_proof, big_proof);
    let mut joined = small.clone();
    assert!(joined.join_with(&big));
    assert_eq!(joined, big, "equal as sets of records");
    assert!(!joined.ptr_eq(&big), "but not the peer's allocation");
    for pv in joined.iter() {
        let own = small.contains(pv);
        let expected = if own { small_proof } else { big_proof };
        assert_eq!(pv.proof.id(), expected, "value {}", pv.signed.value);
    }
}

/// Plain values — and signed values, whose `==` covers the signature —
/// have nothing to keep: a subset joined with its superset *is* the
/// superset, allocation and all.
#[test]
fn plain_subset_joined_with_superset_adopts_its_allocation() {
    let (small, big) = (vs(&[2, 3]), vs(&[1, 2, 3, 4]));
    let mut joined = small.clone();
    assert!(joined.join_with(&big));
    assert!(joined.ptr_eq(&big));

    let kp = Keypair::for_process(0);
    let signed = |values: &[u64]| -> ValueSet<SignedValue<u64>> {
        values
            .iter()
            .map(|&v| SignedValue::sign(v, 0, &kp))
            .collect()
    };
    let (small, big) = (signed(&[2, 3]), signed(&[1, 2, 3, 4]));
    let mut joined = small.clone();
    assert!(joined.join_with(&big));
    assert!(joined.ptr_eq(&big));
}
