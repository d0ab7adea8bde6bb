//! Property-based testing of `ValueSet`: the join-semilattice laws, full
//! behavioral agreement with the `BTreeSet` reference it replaced, and
//! delta encode/decode round-trips — sampled over arbitrary value
//! vectors, like the algorithm property suites alongside this file.

use bgla_core::valueset::{DeltaReceiver, DeltaSender, SetUpdate};
use bgla_core::ValueSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn vs(v: &[u64]) -> ValueSet<u64> {
    v.iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Join is idempotent: `a ∪ a = a`.
    #[test]
    fn join_idempotent(a: Vec<u64>) {
        let a = vs(&a);
        prop_assert_eq!(a.join(&a), a);
    }

    /// Join commutes: `a ∪ b = b ∪ a`.
    #[test]
    fn join_commutative(a: Vec<u64>, b: Vec<u64>) {
        let (a, b) = (vs(&a), vs(&b));
        prop_assert_eq!(a.join(&b), b.join(&a));
    }

    /// Join associates: `(a ∪ b) ∪ c = a ∪ (b ∪ c)`.
    #[test]
    fn join_associative(a: Vec<u64>, b: Vec<u64>, c: Vec<u64>) {
        let (a, b, c) = (vs(&a), vs(&b), vs(&c));
        prop_assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
    }

    /// The bottom element is the identity: `a ∪ ⊥ = a`.
    #[test]
    fn join_identity(a: Vec<u64>) {
        let a = vs(&a);
        prop_assert_eq!(a.join(&ValueSet::new()), a);
    }

    /// Order agrees with join: `a ⊆ b ⟺ a ∪ b = b`.
    #[test]
    fn order_consistent_with_join(a: Vec<u64>, b: Vec<u64>) {
        let (a, b) = (vs(&a), vs(&b));
        prop_assert_eq!(a.is_subset(&b), a.join(&b) == b);
    }

    /// Every observable operation agrees with the `BTreeSet` reference.
    #[test]
    fn agrees_with_btreeset_reference(a: Vec<u64>, b: Vec<u64>, probe: u64) {
        let (ra, rb): (BTreeSet<u64>, BTreeSet<u64>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let (va, vb) = (vs(&a), vs(&b));
        prop_assert_eq!(va.len(), ra.len());
        prop_assert_eq!(va.is_empty(), ra.is_empty());
        prop_assert_eq!(va.contains(&probe), ra.contains(&probe));
        prop_assert_eq!(va.is_subset(&vb), ra.is_subset(&rb));
        prop_assert_eq!(va.is_superset(&vb), ra.is_superset(&rb));
        // Union / difference contents.
        let union: Vec<u64> = ra.union(&rb).copied().collect();
        prop_assert_eq!(va.join(&vb).as_slice(), union.as_slice());
        let diff: Vec<u64> = ra.difference(&rb).copied().collect();
        prop_assert_eq!(va.difference(&vb).as_slice(), diff.as_slice());
        // Iteration order and equality semantics.
        let iterated: Vec<u64> = va.iter().copied().collect();
        let reference: Vec<u64> = ra.iter().copied().collect();
        prop_assert_eq!(iterated, reference);
        prop_assert_eq!(va == vb, ra == rb);
        // Comparison order matches (both lexicographic over sorted elems).
        prop_assert_eq!(va.cmp(&vb), ra.cmp(&rb));
    }

    /// Incremental insert matches reference insert, including the
    /// copy-on-write path (a live clone must never observe the write).
    #[test]
    fn insert_agrees_with_reference(a: Vec<u64>, extra: Vec<u64>) {
        let mut reference: BTreeSet<u64> = a.iter().copied().collect();
        let mut set = vs(&a);
        let frozen = set.clone();
        let frozen_reference = reference.clone();
        for x in &extra {
            prop_assert_eq!(set.insert(*x), reference.insert(*x));
        }
        let got: Vec<u64> = set.iter().copied().collect();
        let want: Vec<u64> = reference.iter().copied().collect();
        prop_assert_eq!(got, want);
        let frozen_got: Vec<u64> = frozen.iter().copied().collect();
        let frozen_want: Vec<u64> = frozen_reference.iter().copied().collect();
        prop_assert_eq!(frozen_got, frozen_want, "CoW leaked into a clone");
    }

    /// Cached wire size always equals the freshly-computed sum.
    #[test]
    fn wire_size_matches_recomputation(a: Vec<u64>, b: Vec<u64>) {
        let mut set = vs(&a);
        set.join_with(&vs(&b));
        let expect = bgla_codec::var_len(set.len() as u64) + 8 * set.len();
        prop_assert_eq!(set.wire_size(), expect);
        prop_assert_eq!(set.wire_size(), bgla_codec::encode_payload(&set).len());
    }

    /// Delta round-trip: for any base ⊆-chain step, encode at the
    /// sender, resolve at the receiver, recover the refined set exactly.
    #[test]
    fn delta_roundtrip(base: Vec<u64>, additions: Vec<u64>) {
        let base = vs(&base);
        let refined = base.join(&vs(&additions));
        let mut tx: DeltaSender<u64> = DeltaSender::new();
        let mut rx: DeltaReceiver<u64> = DeltaReceiver::new();
        // ts 0: first contact — must be Full, resolves to the base.
        tx.record_broadcast(0, &base);
        let u0 = tx.encode_for(3, 0, &base);
        prop_assert!(matches!(u0, SetUpdate::Full(_)));
        let r0 = rx.resolve(7, &u0).expect("full always resolves");
        prop_assert_eq!(&r0, &base);
        rx.record(7, 0, &r0);
        tx.record_reply(3, 0);
        // ts 1: refinement — delta against ts 0, resolving to `refined`.
        tx.record_broadcast(1, &refined);
        let u1 = tx.encode_for(3, 1, &refined);
        match &u1 {
            SetUpdate::Delta { base_ts, added } => {
                prop_assert_eq!(*base_ts, 0);
                prop_assert_eq!(added.clone(), refined.difference(&base));
                // The delta never re-ships base values.
                prop_assert!(added.iter().all(|v| !base.contains(v) || refined.difference(&base).contains(v)));
            }
            SetUpdate::Full(_) => prop_assert!(false, "expected a delta"),
        }
        let r1 = rx.resolve(7, &u1).expect("recorded base resolves");
        prop_assert_eq!(r1, refined);
    }

    /// Delta encoding never carries more values (or more modeled bytes)
    /// than the full set it stands for.
    #[test]
    fn delta_never_larger_than_full(base: Vec<u64>, additions: Vec<u64>) {
        let base = vs(&base);
        let refined = base.join(&vs(&additions));
        let mut tx: DeltaSender<u64> = DeltaSender::new();
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
        let mut tx: DeltaSender<u64> = DeltaSender::new();
        let mut rx: Vec<DeltaReceiver<u64>> = (0..PEERS).map(|_| DeltaReceiver::new()).collect();

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
        let mut fresh_rx: DeltaReceiver<u64> = DeltaReceiver::new();
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
