//! Engine-level fuzzing: feed arbitrary message streams (any sender, any
//! content) into an RbcastEngine and check its invariants never break —
//! no panics, one delivery per (origin, tag), delivered values backed by
//! a plausible quorum of distinct ready-senders. A second property runs
//! the engine against a map-of-sets reference, message by message.

// Thresholds are written as in the paper (`f + 1`, `2f + 1`).
#![allow(clippy::int_plus_one)]

use bgla_rbcast::{Delivery, RbMsg, RbcastEngine};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Action {
    Init {
        from: usize,
        tag: u8,
        value: u8,
    },
    Echo {
        from: usize,
        origin: usize,
        tag: u8,
        value: u8,
    },
    Ready {
        from: usize,
        origin: usize,
        tag: u8,
        value: u8,
    },
}

fn arb_action(n: usize) -> impl Strategy<Value = Action> {
    prop_oneof![
        (0..n, any::<u8>(), any::<u8>()).prop_map(|(from, tag, value)| Action::Init {
            from,
            tag: tag % 3,
            value: value % 4
        }),
        (0..n, 0..n, any::<u8>(), any::<u8>()).prop_map(|(from, origin, tag, value)| {
            Action::Echo {
                from,
                origin,
                tag: tag % 3,
                value: value % 4,
            }
        }),
        (0..n, 0..n, any::<u8>(), any::<u8>()).prop_map(|(from, origin, tag, value)| {
            Action::Ready {
                from,
                origin,
                tag: tag % 3,
                value: value % 4,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_invariants_under_arbitrary_streams(
        actions in proptest::collection::vec(arb_action(7), 1..200)
    ) {
        let (n, f) = (7usize, 2usize);
        let mut engine: RbcastEngine<u8> = RbcastEngine::new(n, f);
        let mut reference = Reference::default();
        let mut delivered: BTreeMap<(usize, u64), u8> = BTreeMap::new();
        // Track which distinct senders sent a ready for (origin,tag,val).
        let mut ready_senders: BTreeMap<(usize, u64, u8), BTreeSet<usize>> = BTreeMap::new();

        for a in actions {
            let (from, msg) = match a {
                Action::Init { from, tag, value } => {
                    (from, RbMsg::Init { tag: tag as u64, value })
                }
                Action::Echo { from, origin, tag, value } => (
                    from,
                    RbMsg::Echo { origin, tag: tag as u64, value },
                ),
                Action::Ready { from, origin, tag, value } => {
                    ready_senders
                        .entry((origin, tag as u64, value))
                        .or_default()
                        .insert(from);
                    (from, RbMsg::Ready { origin, tag: tag as u64, value })
                }
            };
            let want = reference.on_message(n, f, from, msg.clone());
            let (out, dels) = engine.on_message(from, msg);
            prop_assert_eq!(&(out, dels.clone()), &want);
            for d in dels {
                // Integrity: at most one delivery per (origin, tag).
                let prev = delivered.insert((d.origin, d.tag), d.value);
                prop_assert!(prev.is_none(), "double delivery for {:?}", (d.origin, d.tag));
                // A delivery needs 2f+1 distinct ready-senders for this
                // exact value (our own engine's readies included — at
                // most 1).
                let externals = ready_senders
                    .get(&(d.origin, d.tag, d.value))
                    .map(|s| s.len())
                    .unwrap_or(0);
                prop_assert!(
                    externals + 1 > 2 * f,
                    "delivered with only {externals} external readies"
                );
                prop_assert!(engine.has_delivered(d.origin, d.tag));
            }
        }
    }
}

type Key = (usize, u64);
type Output = (Vec<RbMsg<u8>>, Vec<Delivery<u8>>);

/// The oracle of the differential test: Bracha's rules over plain maps of
/// sets, nothing dropped, nothing skipped.
#[derive(Default)]
struct Reference {
    echoed: BTreeSet<Key>,
    readied: BTreeSet<Key>,
    delivered: BTreeSet<Key>,
    /// `(instance, sender, is_ready)`: one vote of each kind per sender.
    voted: BTreeSet<(Key, usize, bool)>,
    votes: BTreeMap<(Key, bool, u8), BTreeSet<usize>>,
}

impl Reference {
    fn on_message(&mut self, n: usize, f: usize, from: usize, msg: RbMsg<u8>) -> Output {
        let (mut out, mut dels) = (Vec::new(), Vec::new());
        let (origin, tag, value, ready) = match msg {
            RbMsg::Init { tag, value } => {
                if from < n && self.echoed.insert((from, tag)) {
                    let origin = from;
                    out.push(RbMsg::Echo { origin, tag, value });
                }
                return (out, dels);
            }
            RbMsg::Echo { origin, tag, value } => (origin, tag, value, false),
            RbMsg::Ready { origin, tag, value } => (origin, tag, value, true),
        };
        let key = (origin, tag);
        if from >= n || origin >= n || !self.voted.insert((key, from, ready)) {
            return (out, dels);
        }
        let voters = self.votes.entry((key, ready, value)).or_default();
        voters.insert(from);
        let to_ready = if ready {
            f + 1
        } else {
            (n + f + 1).div_ceil(2)
        };
        if voters.len() >= to_ready && self.readied.insert(key) {
            out.push(RbMsg::Ready { origin, tag, value });
        }
        if ready && voters.len() >= 2 * f + 1 && self.delivered.insert(key) {
            dels.push(Delivery { origin, tag, value });
        }
        (out, dels)
    }
}

/// A stream over a few instances in which every sender casts an echo and
/// a ready for value 0, the last `f` senders and two senders outside
/// `0..n` also (in shuffled order: first or second) vote for other values,
/// every origin equivocates its init, and one origin is outside `0..n`.
fn mixed_stream(n: usize, f: usize, seed: u64) -> Vec<(usize, RbMsg<u8>)> {
    let mut state = seed | 1;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let mut stream = Vec::new();
    for origin in [0, n - 1, n + 1] {
        for tag in 0..2u64 {
            stream.push((origin, RbMsg::Init { tag, value: 0 }));
            stream.push((origin, RbMsg::Init { tag, value: 1 }));
            for from in 0..n + 2 {
                for value in [0u8, 1 + next(3) as u8] {
                    if value == 0 || (from >= n - f && next(3) > 0) {
                        stream.push((from, RbMsg::Echo { origin, tag, value }));
                        stream.push((from, RbMsg::Ready { origin, tag, value }));
                    }
                }
            }
        }
    }
    for i in (1..stream.len()).rev() {
        stream.swap(i, next(i + 1));
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 32 } else { 512 }))]

    #[test]
    fn engine_matches_the_map_of_sets_reference(seed in any::<u64>()) {
        for n in [4usize, 7, 10, 48] {
            let f = (n - 1) / 3;
            let mut engine: RbcastEngine<u8> = RbcastEngine::new(n, f);
            let mut reference = Reference::default();
            let mut deliveries = 0;
            for (step, (from, msg)) in mixed_stream(n, f, seed).into_iter().enumerate() {
                let got = engine.on_message(from, msg.clone());
                let want = reference.on_message(n, f, from, msg.clone());
                deliveries += got.1.len();
                prop_assert_eq!(got, want, "n={} step {}: {:?} from {}", n, step, msg, from);
            }
            // The n − f honest votes carry both in-range origins' instances.
            prop_assert_eq!(deliveries, 4, "n={}", n);
        }
    }
}

/// A delivered instance keeps its flags and nothing else: every clone of
/// the payload the engine took while counting is released.
#[test]
fn delivered_instance_releases_its_payload() {
    let (n, f) = (4usize, 1usize);
    let payload = Arc::new(7u64);
    let mut engine: RbcastEngine<Arc<u64>> = RbcastEngine::new(n, f);
    let value = || Arc::clone(&payload);
    drop(engine.on_message(
        0,
        RbMsg::Init {
            tag: 0,
            value: value(),
        },
    ));
    for from in 0..n {
        let echo = RbMsg::Echo {
            origin: 0,
            tag: 0,
            value: value(),
        };
        drop(engine.on_message(from, echo));
    }
    assert!(
        Arc::strong_count(&payload) > 1,
        "an open instance holds its payload"
    );
    let mut delivered = 0;
    for from in 0..n {
        let ready = RbMsg::Ready {
            origin: 0,
            tag: 0,
            value: value(),
        };
        delivered += engine.on_message(from, ready).1.len();
    }
    assert_eq!(delivered, 1);
    assert!(engine.has_delivered(0, 0));
    assert_eq!(
        Arc::strong_count(&payload),
        1,
        "a delivered instance retained its payload"
    );
}
