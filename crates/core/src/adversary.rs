//! A library of Byzantine behaviors.
//!
//! The Byzantine LA specification quantifies over *arbitrary* adversary
//! code; testing therefore needs a structured family of worst-case
//! behaviors, each aimed at one proof obligation of the paper:
//!
//! | Adversary | Targets |
//! |---|---|
//! | [`Silent`] | liveness thresholds (`n−f` disclosures, quorum size) |
//! | [`Equivocator`] | Observation 1 (one safe value per process) |
//! | [`NackSpammer`] | Lemma 3 (refinement bound) / liveness |
//! | [`AckForger`] | quorum soundness (Lemma 1) |
//! | [`SplitBrain`] | Theorem 1 (the `3f+1` necessity construction) |
//! | [`LateDiscloser`] | refinement maximization (Lemma 3 at its bound) |
//!
//! All of them implement `Process<WtsMsg<V>>`; the harness guarantees
//! they cannot forge sender identities, matching the authenticated-
//! channels model.

use crate::value::Value;
use crate::valueset::{SetUpdate, ValueSet};
use crate::wts::WtsMsg;
use bgla_rbcast::RbMsg;
use bgla_simnet::{Context, Process, ProcessId};
use std::any::Any;
use std::collections::BTreeSet;
use std::marker::PhantomData;

/// Flips one bit of a signature's `S` half: the record keeps its shape
/// and content and no longer verifies.
fn corrupt(sig: &mut bgla_crypto::Signature) {
    if let Some(low) = sig.s.first_mut() {
        *low ^= 1;
    }
}

/// Sends nothing, ever: the crash-from-the-start adversary. Forces the
/// protocol to live with `n − f` participants.
pub struct Silent<V> {
    _marker: PhantomData<V>,
}

impl<V> Default for Silent<V> {
    fn default() -> Self {
        Silent {
            _marker: PhantomData,
        }
    }
}

impl<V: Value> Process<WtsMsg<V>> for Silent<V> {
    fn on_message(&mut self, _f: ProcessId, _m: WtsMsg<V>, _c: &mut Context<WtsMsg<V>>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Discloses value `a` to the first half of the system and `b` to the
/// second half, then echoes/acks nothing. The reliable broadcast must
/// ensure at most one of `a`, `b` ever becomes safe anywhere.
pub struct Equivocator<V: Value> {
    /// Value shown to the low half.
    pub a: V,
    /// Value shown to the high half.
    pub b: V,
}

impl<V: Value> Process<WtsMsg<V>> for Equivocator<V> {
    fn on_start(&mut self, ctx: &mut Context<WtsMsg<V>>) {
        let n = ctx.n;
        for to in 0..n {
            let value = if to < n / 2 {
                self.a.clone()
            } else {
                self.b.clone()
            };
            ctx.send(to, WtsMsg::Rb(RbMsg::Init { tag: 0, value }));
        }
    }
    fn on_message(&mut self, _f: ProcessId, _m: WtsMsg<V>, _c: &mut Context<WtsMsg<V>>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// As an acceptor, nacks every ack request with a growing set drawn from
/// values it has legitimately seen disclosed — trying to force endless
/// refinements. (Lemma 3: it can force at most `f` of them, because nacks
/// must be *safe* for the proposer to act on them.)
pub struct NackSpammer<V: Value> {
    seen: BTreeSet<V>,
    /// Values this adversary discloses itself (at most one becomes safe).
    pub own_value: V,
}

impl<V: Value> NackSpammer<V> {
    /// Creates the adversary with its own disclosed value.
    pub fn new(own_value: V) -> Self {
        NackSpammer {
            seen: BTreeSet::new(),
            own_value,
        }
    }
}

impl<V: Value> Process<WtsMsg<V>> for NackSpammer<V> {
    fn on_start(&mut self, ctx: &mut Context<WtsMsg<V>>) {
        // Disclose honestly so its value is usable in nacks.
        ctx.broadcast(WtsMsg::Rb(RbMsg::Init {
            tag: 0,
            value: self.own_value.clone(),
        }));
    }
    fn on_message(&mut self, from: ProcessId, msg: WtsMsg<V>, ctx: &mut Context<WtsMsg<V>>) {
        match msg {
            WtsMsg::Rb(RbMsg::Init { value, .. })
            | WtsMsg::Rb(RbMsg::Echo { value, .. })
            | WtsMsg::Rb(RbMsg::Ready { value, .. }) => {
                self.seen.insert(value);
            }
            WtsMsg::AckReq { ts, .. } => {
                // Always nack, with everything we have ever seen.
                ctx.send(
                    from,
                    WtsMsg::Nack {
                        accepted: self.seen.iter().cloned().collect(),
                        ts,
                    },
                );
            }
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Acks *everything* immediately (without safety checks), trying to make
/// proposers decide prematurely on under-replicated proposals.
pub struct AckForger<V> {
    _marker: PhantomData<V>,
}

impl<V> Default for AckForger<V> {
    fn default() -> Self {
        AckForger {
            _marker: PhantomData,
        }
    }
}

impl<V: Value> Process<WtsMsg<V>> for AckForger<V> {
    fn on_message(&mut self, from: ProcessId, msg: WtsMsg<V>, ctx: &mut Context<WtsMsg<V>>) {
        if let WtsMsg::AckReq { ts, .. } = msg {
            ctx.send(from, WtsMsg::Ack { ts });
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The Theorem-1 adversary for `n = 3f` systems: equivocates its
/// disclosure *and* acks both sides' proposals independently, so that
/// with the victims partitioned by the scheduler each side reaches its
/// quorum with incompatible sets. Only effective when `n < 3f + 1`; at
/// `n = 3f + 1` the echo quorums overlap in a correct process and the
/// attack collapses.
pub struct SplitBrain<V: Value> {
    /// Value disclosed to the low half.
    pub a: V,
    /// Value disclosed to the high half.
    pub b: V,
}

impl<V: Value> Process<WtsMsg<V>> for SplitBrain<V> {
    fn on_start(&mut self, ctx: &mut Context<WtsMsg<V>>) {
        let n = ctx.n;
        for to in 0..n {
            if to == ctx.me {
                continue;
            }
            let value = if to < n / 2 {
                self.a.clone()
            } else {
                self.b.clone()
            };
            ctx.send(to, WtsMsg::Rb(RbMsg::Init { tag: 0, value }));
        }
    }
    fn on_message(&mut self, from: ProcessId, msg: WtsMsg<V>, ctx: &mut Context<WtsMsg<V>>) {
        if from == ctx.me {
            return; // never converse with ourselves (avoids self-loops)
        }
        match msg {
            // Echo whatever each victim believes, back to that victim
            // only — sustaining both world views.
            WtsMsg::Rb(RbMsg::Init { tag, value }) => {
                ctx.send(
                    from,
                    WtsMsg::Rb(RbMsg::Echo {
                        origin: from,
                        tag,
                        value: value.clone(),
                    }),
                );
                ctx.send(
                    from,
                    WtsMsg::Rb(RbMsg::Ready {
                        origin: from,
                        tag,
                        value,
                    }),
                );
            }
            WtsMsg::Rb(RbMsg::Echo { origin, tag, value }) => {
                ctx.send(
                    from,
                    WtsMsg::Rb(RbMsg::Echo {
                        origin,
                        tag,
                        value: value.clone(),
                    }),
                );
                ctx.send(from, WtsMsg::Rb(RbMsg::Ready { origin, tag, value }));
            }
            WtsMsg::AckReq { ts, .. } => {
                ctx.send(from, WtsMsg::Ack { ts });
            }
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Correct-but-slow discloser: withholds its `Init` until it has seen
/// `trigger` deliveries, so its value reaches acceptors after proposers
/// have started proposing — the refinement-maximizing schedule.
pub struct LateDiscloser<V: Value> {
    /// The value eventually disclosed.
    pub value: V,
    /// How many local deliveries to wait for before disclosing.
    pub trigger: u64,
    sent: bool,
}

impl<V: Value> LateDiscloser<V> {
    /// New late discloser.
    pub fn new(value: V, trigger: u64) -> Self {
        LateDiscloser {
            value,
            trigger,
            sent: false,
        }
    }
}

impl<V: Value> Process<WtsMsg<V>> for LateDiscloser<V> {
    fn on_message(&mut self, _from: ProcessId, _msg: WtsMsg<V>, ctx: &mut Context<WtsMsg<V>>) {
        if !self.sent && ctx.local_events >= self.trigger {
            self.sent = true;
            ctx.broadcast(WtsMsg::Rb(RbMsg::Init {
                tag: 0,
                value: self.value.clone(),
            }));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{assert_la_spec, wts_report, wts_system_with_adversaries};
    use bgla_simnet::RandomScheduler;

    fn correct_ids(n: usize, byz: &[usize]) -> Vec<usize> {
        (0..n).filter(|i| !byz.contains(i)).collect()
    }

    #[test]
    fn silent_adversary_cannot_block_progress() {
        for seed in 0..10 {
            let (mut sim, config, byz) = wts_system_with_adversaries(
                4,
                1,
                |i| i as u64,
                Box::new(RandomScheduler::new(seed)),
                |i, _| (i == 3).then(|| Box::new(Silent::default()) as _),
            );
            let out = sim.run(1_000_000);
            assert!(out.quiescent);
            let correct = correct_ids(config.n, &byz);
            let report = wts_report(&sim, &correct);
            let inputs = correct.iter().map(|&i| i as u64).collect();
            assert_la_spec(&report, &inputs, config.f);
        }
    }

    #[test]
    fn equivocator_injects_at_most_one_value() {
        for seed in 0..20 {
            let (mut sim, config, byz) = wts_system_with_adversaries(
                4,
                1,
                |i| i as u64,
                Box::new(RandomScheduler::new(seed)),
                |i, _| {
                    (i == 3).then(|| {
                        Box::new(Equivocator {
                            a: 666u64,
                            b: 777u64,
                        }) as _
                    })
                },
            );
            let out = sim.run(1_000_000);
            assert!(out.quiescent, "seed {seed}");
            let correct = correct_ids(config.n, &byz);
            let report = wts_report(&sim, &correct);
            let inputs: std::collections::BTreeSet<u64> =
                correct.iter().map(|&i| i as u64).collect();
            assert_la_spec(&report, &inputs, config.f);
            // Specifically: never both 666 and 777 in any decision.
            for d in &report.decisions {
                assert!(
                    !(d.contains(&666) && d.contains(&777)),
                    "equivocated values coexist (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn nack_spammer_cannot_force_more_than_f_refinements() {
        for seed in 0..20 {
            let (mut sim, config, byz) = wts_system_with_adversaries(
                7,
                2,
                |i| i as u64,
                Box::new(RandomScheduler::new(seed)),
                |i, _| match i {
                    5 => Some(Box::new(NackSpammer::new(500u64)) as _),
                    6 => Some(Box::new(NackSpammer::new(600u64)) as _),
                    _ => None,
                },
            );
            let out = sim.run(10_000_000);
            assert!(out.quiescent, "seed {seed}");
            let correct = correct_ids(config.n, &byz);
            let report = wts_report(&sim, &correct);
            let inputs = correct.iter().map(|&i| i as u64).collect();
            assert_la_spec(&report, &inputs, config.f);
            assert!(
                report.max_refinements <= config.f as u64,
                "seed {seed}: {} refinements",
                report.max_refinements
            );
        }
    }

    #[test]
    fn ack_forger_cannot_break_comparability() {
        for seed in 0..20 {
            let (mut sim, config, byz) = wts_system_with_adversaries(
                4,
                1,
                |i| i as u64,
                Box::new(RandomScheduler::new(seed)),
                |i, _| (i == 0).then(|| Box::new(AckForger::default()) as _),
            );
            let out = sim.run(1_000_000);
            assert!(out.quiescent, "seed {seed}");
            let correct = correct_ids(config.n, &byz);
            let report = wts_report(&sim, &correct);
            let inputs = correct.iter().map(|&i| i as u64).collect();
            assert_la_spec(&report, &inputs, config.f);
        }
    }

    #[test]
    fn late_discloser_causes_refinements_but_not_divergence() {
        for seed in 0..10 {
            let (mut sim, config, byz) = wts_system_with_adversaries(
                4,
                1,
                |i| i as u64,
                Box::new(RandomScheduler::new(seed)),
                |i, _| (i == 3).then(|| Box::new(LateDiscloser::new(333u64, 8)) as _),
            );
            let out = sim.run(1_000_000);
            assert!(out.quiescent, "seed {seed}");
            let correct = correct_ids(config.n, &byz);
            let report = wts_report(&sim, &correct);
            let inputs = correct.iter().map(|&i| i as u64).collect();
            assert_la_spec(&report, &inputs, config.f);
        }
    }
}

/// A seeded "chaos" adversary: on every event it replays mutated
/// fragments of protocol traffic it has observed — acks/nacks with
/// random timestamps, re-sent disclosures, echoes with swapped origins —
/// at random destinations. It cannot forge senders (the harness
/// authenticates), but everything else goes.
///
/// This is the property-test workhorse: safety must survive *any*
/// behavior, so we sample behaviors randomly.
pub struct ChaosMonkey<V: Value> {
    rng_state: u64,
    seen_values: Vec<V>,
    seen_msgs: Vec<WtsMsg<V>>,
    /// Messages injected per delivery (kept small to bound runs).
    pub burst: usize,
}

impl<V: Value> ChaosMonkey<V> {
    /// Creates a chaos adversary with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        ChaosMonkey {
            rng_state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            seen_values: Vec::new(),
            seen_msgs: Vec::new(),
            burst: 2,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn observe(&mut self, msg: &WtsMsg<V>) {
        match msg {
            WtsMsg::Rb(RbMsg::Init { value, .. })
            | WtsMsg::Rb(RbMsg::Echo { value, .. })
            | WtsMsg::Rb(RbMsg::Ready { value, .. }) => {
                if self.seen_values.len() < 64 {
                    self.seen_values.push(value.clone());
                }
            }
            other => {
                if self.seen_msgs.len() < 64 {
                    self.seen_msgs.push(other.clone());
                }
            }
        }
    }

    fn random_set(&mut self) -> ValueSet<V> {
        let mut set = ValueSet::new();
        if self.seen_values.is_empty() {
            return set;
        }
        let k = (self.next_u64() as usize) % (self.seen_values.len().min(4) + 1);
        for _ in 0..k {
            let idx = (self.next_u64() as usize) % self.seen_values.len();
            // bgla-lint: allow(byzantine-panic, "index is rng % len; emptiness checked above")
            set.insert(self.seen_values[idx].clone());
        }
        set
    }

    fn emit(&mut self, ctx: &mut Context<WtsMsg<V>>) {
        for _ in 0..self.burst {
            let to = (self.next_u64() as usize) % ctx.n;
            if to == ctx.me {
                continue;
            }
            let roll = self.next_u64() % 7;
            let msg = match roll {
                0 => WtsMsg::AckReq {
                    proposed: SetUpdate::Full(self.random_set()),
                    ts: self.next_u64() % 4,
                },
                1 => WtsMsg::Ack {
                    ts: self.next_u64() % 4,
                },
                2 => WtsMsg::Nack {
                    accepted: self.random_set(),
                    ts: self.next_u64() % 4,
                },
                6 => WtsMsg::AckReq {
                    // Bogus delta: random base the receiver may not
                    // hold — exercises the gap-detection path.
                    proposed: SetUpdate::Delta {
                        base_ts: self.next_u64() % 8,
                        added: self.random_set(),
                    },
                    ts: self.next_u64() % 4,
                },
                3 => {
                    // Replay a previously observed protocol message.
                    if self.seen_msgs.is_empty() {
                        continue;
                    }
                    let idx = (self.next_u64() as usize) % self.seen_msgs.len();
                    // bgla-lint: allow(byzantine-panic, "index is rng % len; emptiness checked above")
                    self.seen_msgs[idx].clone()
                }
                4 => {
                    // Re-disclose someone's value as our own.
                    if self.seen_values.is_empty() {
                        continue;
                    }
                    let idx = (self.next_u64() as usize) % self.seen_values.len();
                    WtsMsg::Rb(RbMsg::Init {
                        tag: 0,
                        // bgla-lint: allow(byzantine-panic, "index is rng % len; emptiness checked above")
                        value: self.seen_values[idx].clone(),
                    })
                }
                _ => {
                    // Fake a ready for a random origin.
                    if self.seen_values.is_empty() {
                        continue;
                    }
                    let idx = (self.next_u64() as usize) % self.seen_values.len();
                    WtsMsg::Rb(RbMsg::Ready {
                        origin: (self.next_u64() as usize) % ctx.n,
                        tag: 0,
                        // bgla-lint: allow(byzantine-panic, "index is rng % len; emptiness checked above")
                        value: self.seen_values[idx].clone(),
                    })
                }
            };
            ctx.send(to, msg);
        }
    }
}

impl<V: Value> Process<WtsMsg<V>> for ChaosMonkey<V> {
    fn on_start(&mut self, ctx: &mut Context<WtsMsg<V>>) {
        self.emit(ctx);
    }
    fn on_message(&mut self, from: ProcessId, msg: WtsMsg<V>, ctx: &mut Context<WtsMsg<V>>) {
        if from == ctx.me {
            return;
        }
        self.observe(&msg);
        // Throttle: inject on a third of deliveries so runs terminate.
        if self.next_u64().is_multiple_of(3) {
            self.emit(ctx);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// GWTS-specific adversaries.
pub mod gwts {
    use crate::gwts::{AckRecord, GwtsMsg};
    use crate::value::Value;
    use crate::valueset::{SetUpdate, ValueSet};
    use bgla_rbcast::RbMsg;
    use bgla_simnet::{Context, Process, ProcessId};
    use std::any::Any;
    use std::marker::PhantomData;

    /// Pretends to be many rounds ahead, flooding ack requests for
    /// future rounds — the "round clogging" attack `Safe_r` exists to
    /// stop (Section 6.2).
    pub struct RoundJumper<V> {
        /// Highest round to fake.
        pub upto: u64,
        _marker: PhantomData<V>,
    }

    impl<V> RoundJumper<V> {
        /// Jumps up to round `upto`.
        pub fn new(upto: u64) -> Self {
            RoundJumper {
                upto,
                _marker: PhantomData,
            }
        }
    }

    impl<V: Value> Process<GwtsMsg<V>> for RoundJumper<V> {
        fn on_start(&mut self, ctx: &mut Context<GwtsMsg<V>>) {
            for round in 0..self.upto {
                ctx.broadcast(GwtsMsg::AckReq {
                    proposed: SetUpdate::Full(ValueSet::new()),
                    ts: 1_000 + round,
                    round,
                });
            }
        }
        fn on_message(&mut self, _f: ProcessId, _m: GwtsMsg<V>, _c: &mut Context<GwtsMsg<V>>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Silent GWTS participant (crash from the start).
    pub struct SilentG<V> {
        _marker: PhantomData<V>,
    }

    impl<V> Default for SilentG<V> {
        fn default() -> Self {
            SilentG {
                _marker: PhantomData,
            }
        }
    }

    impl<V: Value> Process<GwtsMsg<V>> for SilentG<V> {
        fn on_message(&mut self, _f: ProcessId, _m: GwtsMsg<V>, _c: &mut Context<GwtsMsg<V>>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Equivocating discloser for GWTS: different round-0 batches to the
    /// two halves of the system (stopped by the disclosure rbcast).
    pub struct BatchEquivocator<V: Value> {
        /// Batch shown to the low half.
        pub a: ValueSet<V>,
        /// Batch shown to the high half.
        pub b: ValueSet<V>,
    }

    impl<V: Value> Process<GwtsMsg<V>> for BatchEquivocator<V> {
        fn on_start(&mut self, ctx: &mut Context<GwtsMsg<V>>) {
            for to in 0..ctx.n {
                if to == ctx.me {
                    continue;
                }
                let batch = if to < ctx.n / 2 {
                    self.a.clone()
                } else {
                    self.b.clone()
                };
                ctx.send(
                    to,
                    GwtsMsg::Disc(bgla_rbcast::RbMsg::Init {
                        tag: 0,
                        value: batch,
                    }),
                );
            }
        }
        fn on_message(&mut self, _f: ProcessId, _m: GwtsMsg<V>, _c: &mut Context<GwtsMsg<V>>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// An acceptor that breaks its ack stream one way per request it
    /// answers: it never sends tag 0 and opens with additions, sends a
    /// sound full record, "adds" what that record held, and shows one tag
    /// as a full record to half of its peers and as additions to the
    /// rest, an undisclosed value in both. Correct processes read each of
    /// its records alike or not at all: it wastes its own votes only.
    pub struct AckStreamBreaker<V: Value> {
        junk: ValueSet<V>,
        /// Tag of the last record sent.
        pub tag: u64,
        last_full: ValueSet<V>,
    }

    impl<V: Value> AckStreamBreaker<V> {
        /// A breaker whose unsafe records carry `junk`, a value no process
        /// discloses.
        pub fn new(junk: V) -> Self {
            AckStreamBreaker {
                junk: ValueSet::singleton(junk),
                tag: 0,
                last_full: ValueSet::new(),
            }
        }
    }

    impl<V: Value> Process<GwtsMsg<V>> for AckStreamBreaker<V> {
        fn on_message(&mut self, from: ProcessId, msg: GwtsMsg<V>, ctx: &mut Context<GwtsMsg<V>>) {
            let GwtsMsg::AckReq {
                proposed: SetUpdate::Full(set) | SetUpdate::Delta { added: set, .. },
                ts,
                round,
            } = msg
            else {
                return;
            };
            self.tag += 1;
            // What the even peers and the odd ones are shown: (full?, set).
            let (even, odd) = match self.tag % 4 {
                1 => ((false, set.clone()), (false, set)),
                2 => {
                    self.last_full = set.clone();
                    ((true, set.clone()), (true, set))
                }
                3 => (
                    (false, self.last_full.clone()),
                    (false, self.last_full.clone()),
                ),
                _ => ((true, set.join(&self.junk)), (false, self.junk.clone())),
            };
            for to in 0..ctx.n {
                let (full, accepted) = if to % 2 == 0 { &even } else { &odd }.clone();
                let value = AckRecord {
                    round,
                    ts,
                    destination: from,
                    full,
                    accepted,
                };
                let tag = self.tag;
                ctx.send(to, GwtsMsg::Ack(RbMsg::Init { tag, value }));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
}

/// SbS-specific adversaries (Section 8).
pub mod sbs {
    use crate::proof::{Proof, ProofAck};
    use crate::provendelta::ProvenUpdate;
    use crate::sbs::{ProvenValue, SafeAckBody, SbsMsg, SignedSafeAck, SignedValue};
    use crate::value::Value;
    use crate::valueset::ValueSet;
    use bgla_crypto::{Keypair, ProofIdBuilder};
    use bgla_simnet::{Context, Process, ProcessId};
    use std::any::Any;

    /// Signs two different values and shows one to each half of the
    /// system — Lemma 13's threat: at most one may ever become safe.
    pub struct ConflictSigner<V: Value> {
        /// This adversary's process id (it signs with its real key —
        /// it cannot forge anyone else's).
        pub me: ProcessId,
        /// Value shown to the low half.
        pub a: V,
        /// Value shown to the high half.
        pub b: V,
    }

    impl<V: Value> Process<SbsMsg<V>> for ConflictSigner<V> {
        fn on_start(&mut self, ctx: &mut Context<SbsMsg<V>>) {
            let kp = Keypair::for_process(self.me);
            let sva = SignedValue::sign(self.a.clone(), self.me, &kp);
            let svb = SignedValue::sign(self.b.clone(), self.me, &kp);
            for to in 0..ctx.n {
                if to == ctx.me {
                    continue;
                }
                let sv = if to < ctx.n / 2 {
                    sva.clone()
                } else {
                    svb.clone()
                };
                ctx.send(to, SbsMsg::Init(sv));
            }
        }
        fn on_message(&mut self, _f: ProcessId, _m: SbsMsg<V>, _c: &mut Context<SbsMsg<V>>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Tries to push proposals carrying *forged* proofs of safety:
    /// undersized quorums, self-duplicated acks, and acks that never
    /// covered the value. `AllSafe` must reject every one.
    pub struct ProofForger<V: Value> {
        /// The adversary's id.
        pub me: ProcessId,
        /// The value it tries to sneak in.
        pub value: V,
    }

    impl<V: Value> Process<SbsMsg<V>> for ProofForger<V> {
        fn on_start(&mut self, ctx: &mut Context<SbsMsg<V>>) {
            let kp = Keypair::for_process(self.me);
            let sv = SignedValue::sign(self.value.clone(), self.me, &kp);
            // A "proof" of one self-signed ack, repeated.
            let body = SafeAckBody {
                rcvd: [sv.clone()].into_iter().collect(),
                conflicts: vec![],
            };
            let ack = SignedSafeAck::sign(body, self.me, &kp);
            let proof = Proof::new(vec![ack.clone(), ack.clone(), ack]);
            let proposed: ValueSet<ProvenValue<V>> =
                [ProvenValue { signed: sv, proof }].into_iter().collect();
            for ts in 0..3 {
                ctx.broadcast(SbsMsg::AckReq {
                    proposed: ProvenUpdate::Full(proposed.clone()),
                    ts,
                });
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: SbsMsg<V>, ctx: &mut Context<SbsMsg<V>>) {
            if from == ctx.me {
                return;
            }
            // Also nack every legitimate request with the forged set.
            if let SbsMsg::AckReq { ts, .. } = msg {
                let kp = Keypair::for_process(self.me);
                let sv = SignedValue::sign(self.value.clone(), self.me, &kp);
                let body = SafeAckBody {
                    rcvd: [sv.clone()].into_iter().collect(),
                    conflicts: vec![],
                };
                let ack = SignedSafeAck::sign(body, self.me, &kp);
                let accepted: ValueSet<ProvenValue<V>> = [ProvenValue {
                    signed: sv,
                    proof: Proof::new(vec![ack]),
                }]
                .into_iter()
                .collect();
                ctx.send(
                    from,
                    SbsMsg::Nack {
                        accepted: ProvenUpdate::Full(accepted),
                        ts,
                    },
                );
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Ships `Delta` payloads whose references cannot resolve: refs to
    /// [`bgla_crypto::ProofId`]s the peer never saw (forged-proof ids
    /// included) and deltas against bases no one holds. Honest receivers
    /// must detect every gap, answer with `Resync`, and proceed
    /// unharmed; this adversary answers the resync with a `Full` payload
    /// (of forged content — `AllSafe` rejects it), exercising the
    /// fallback end-to-end. Its nacks delta-gap too, which proposers
    /// must treat as Byzantine without stalling.
    pub struct BogusRefSender<V: Value> {
        /// The adversary's id (it signs with its real key).
        pub me: ProcessId,
        /// The value its forged payloads carry.
        pub value: V,
        /// Resync requests received (the gap detections it provoked).
        pub resyncs_seen: u64,
    }

    impl<V: Value> BogusRefSender<V> {
        /// Creates the adversary.
        pub fn new(me: ProcessId, value: V) -> Self {
            BogusRefSender {
                me,
                value,
                resyncs_seen: 0,
            }
        }

        /// A forged single-ack proven value (quorum-invalid on purpose —
        /// even a resolved reference to it must never certify anything).
        fn forged_set(&self) -> ValueSet<ProvenValue<V>> {
            let kp = Keypair::for_process(self.me);
            let sv = SignedValue::sign(self.value.clone(), self.me, &kp);
            let body = SafeAckBody {
                rcvd: [sv.clone()].into_iter().collect(),
                conflicts: vec![],
            };
            let ack = SignedSafeAck::sign(body, self.me, &kp);
            [ProvenValue {
                signed: sv,
                proof: Proof::new(vec![ack]),
            }]
            .into_iter()
            .collect()
        }
    }

    impl<V: Value> Process<SbsMsg<V>> for BogusRefSender<V> {
        fn on_start(&mut self, ctx: &mut Context<SbsMsg<V>>) {
            let forged = self.forged_set();
            let forged_id = forged.iter().next().expect("one record").proof.id();
            // A delta referencing a proof nobody ever delivered.
            ctx.broadcast(SbsMsg::AckReq {
                proposed: ProvenUpdate::Delta {
                    base_ts: 0,
                    new: forged.clone(),
                    refs: vec![forged_id],
                },
                ts: 1,
            });
            // A delta against a base no receiver recorded, refs to a
            // fabricated id matching no proof at all.
            let mut b = ProofIdBuilder::new();
            b.add_ack(b"no such proof");
            ctx.broadcast(SbsMsg::AckReq {
                proposed: ProvenUpdate::Delta {
                    base_ts: 777,
                    new: ValueSet::new(),
                    refs: vec![b.finish()],
                },
                ts: 2,
            });
        }
        fn on_message(&mut self, from: ProcessId, msg: SbsMsg<V>, ctx: &mut Context<SbsMsg<V>>) {
            if from == ctx.me {
                return;
            }
            match msg {
                // Every legitimate proposal is answered with a nack
                // that delta-gaps at the proposer (unknown base).
                SbsMsg::AckReq { ts, .. } => {
                    ctx.send(
                        from,
                        SbsMsg::Nack {
                            accepted: ProvenUpdate::Delta {
                                base_ts: 999,
                                new: self.forged_set(),
                                refs: vec![],
                            },
                            ts,
                        },
                    );
                }
                // The fallback round trip: answer the resync with the
                // full payload (forged — AllSafe drops it).
                SbsMsg::Resync { ts } => {
                    self.resyncs_seen += 1;
                    ctx.send(
                        from,
                        SbsMsg::AckReq {
                            proposed: ProvenUpdate::Full(self.forged_set()),
                            ts,
                        },
                    );
                }
                _ => {}
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Sends records that pass every structural check but carry a bad
    /// signature — an `Init` of `value` and a `SafeAck` echoing each
    /// `safe_req` — each twice. Correct processes hold such records
    /// unverified until a threshold's worth has arrived
    /// ([`crate::held`]); the batch then fails, and the fallback must drop
    /// exactly these records, flag the forger before `Proposing` and
    /// answer the duplicate from the verifier's cache.
    pub struct SigForger<V: Value> {
        /// The adversary's id (the records carry it as their signer).
        pub me: ProcessId,
        /// The value its forged init carries.
        pub value: V,
    }

    impl<V: Value> Process<SbsMsg<V>> for SigForger<V> {
        fn on_start(&mut self, ctx: &mut Context<SbsMsg<V>>) {
            let mut sv =
                SignedValue::sign(self.value.clone(), self.me, &Keypair::for_process(self.me));
            super::corrupt(&mut sv.sig);
            let me = ctx.me;
            for to in (0..ctx.n).filter(|&to| to != me) {
                ctx.send(to, SbsMsg::Init(sv.clone()));
                ctx.send(to, SbsMsg::Init(sv.clone()));
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: SbsMsg<V>, ctx: &mut Context<SbsMsg<V>>) {
            if from == ctx.me {
                return;
            }
            if let SbsMsg::SafeReq(rcvd) = msg {
                let body = SafeAckBody {
                    rcvd,
                    conflicts: vec![],
                };
                let mut ack = SignedSafeAck::sign(body, self.me, &Keypair::for_process(self.me));
                super::corrupt(&mut ack.sig);
                ctx.send(from, SbsMsg::SafeAck(ack.reply()));
                ctx.send(from, SbsMsg::SafeAck(ack.reply()));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Answers each `safe_req`, twice, with a `safe_ack` it really signed
    /// — over another set than the one requested: the request without
    /// its last record. The reply carries no echo, so a correct proposer
    /// reads it as signed over its own `Safety_set`, and its signature
    /// fails at quorum: it must be dropped, flag this sender before
    /// `Proposing`, cost one failed batch and its fallback, and have its
    /// duplicate answered from the verifier's cache.
    pub struct WrongEcho {
        /// The adversary's id (it signs with its real key).
        pub me: ProcessId,
    }

    impl<V: Value> Process<SbsMsg<V>> for WrongEcho {
        fn on_message(&mut self, from: ProcessId, msg: SbsMsg<V>, ctx: &mut Context<SbsMsg<V>>) {
            if from == ctx.me {
                return;
            }
            if let SbsMsg::SafeReq(set) = msg {
                let body = SafeAckBody {
                    rcvd: set
                        .iter()
                        .take(set.len().saturating_sub(1))
                        .cloned()
                        .collect(),
                    conflicts: vec![],
                };
                let ack = SignedSafeAck::sign(body, self.me, &Keypair::for_process(self.me));
                ctx.send(from, SbsMsg::SafeAck(ack.reply()));
                ctx.send(from, SbsMsg::SafeAck(ack.reply()));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Silent SbS participant.
    pub struct SilentS<V> {
        _marker: std::marker::PhantomData<V>,
    }

    impl<V> Default for SilentS<V> {
        fn default() -> Self {
            SilentS {
                _marker: std::marker::PhantomData,
            }
        }
    }

    impl<V: Value> Process<SbsMsg<V>> for SilentS<V> {
        fn on_message(&mut self, _f: ProcessId, _m: SbsMsg<V>, _c: &mut Context<SbsMsg<V>>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
}

/// GSbS-specific adversaries (Section 8.2).
pub mod gsbs {
    use crate::gsbs::{GSafeAck, GsbsMsg, ProvenBatch, SignedAck, SignedBatch};
    use crate::proof::{Proof, ProofAck};
    use crate::provendelta::ProvenUpdate;
    use crate::value::Value;
    use crate::valueset::ValueSet;
    use bgla_crypto::{digest, Keypair, ProofIdBuilder};
    use bgla_simnet::{Context, Process, ProcessId};
    use std::any::Any;
    use std::collections::BTreeSet;

    /// Sends records that pass every structural check but carry a bad
    /// signature, each twice: an `Init` of `value` for every round it
    /// sees disclosed and for the round after it, a `SafeAck` echoing
    /// each `safe_req`, and an `Ack` of each full proposal (it answers a
    /// delta with `Resync` to get one). Correct processes hold such
    /// records unverified until a threshold's worth has arrived
    /// ([`crate::held`]); the batch then fails, and the fallback must drop
    /// exactly these records and answer the duplicate from the
    /// verifier's cache.
    pub struct SigForger<V: Value> {
        /// The adversary's id (the records carry it as their signer).
        pub me: ProcessId,
        /// The value its forged batches carry.
        pub value: V,
        /// Rounds whose forged `Init` went out.
        inits_sent: BTreeSet<u64>,
    }

    impl<V: Value> SigForger<V> {
        /// Creates the adversary.
        pub fn new(me: ProcessId, value: V) -> Self {
            SigForger {
                me,
                value,
                inits_sent: BTreeSet::new(),
            }
        }

        fn send_twice(ctx: &mut Context<GsbsMsg<V>>, to: ProcessId, msg: GsbsMsg<V>) {
            ctx.send(to, msg.clone());
            ctx.send(to, msg);
        }

        fn forge_init(&mut self, round: u64, ctx: &mut Context<GsbsMsg<V>>) {
            if !self.inits_sent.insert(round) {
                return;
            }
            let batch: ValueSet<V> = [self.value.clone()].into_iter().collect();
            let mut sb = SignedBatch::sign(round, batch, self.me, &Keypair::for_process(self.me));
            super::corrupt(&mut sb.sig);
            let me = ctx.me;
            for to in (0..ctx.n).filter(|&to| to != me) {
                Self::send_twice(ctx, to, GsbsMsg::Init(sb.clone()));
            }
        }
    }

    impl<V: Value> Process<GsbsMsg<V>> for SigForger<V> {
        fn on_start(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
            self.forge_init(0, ctx);
            self.forge_init(1, ctx);
        }
        fn on_message(&mut self, from: ProcessId, msg: GsbsMsg<V>, ctx: &mut Context<GsbsMsg<V>>) {
            if from == ctx.me {
                return;
            }
            let kp = Keypair::for_process(self.me);
            match msg {
                GsbsMsg::Init(sb) => {
                    self.forge_init(sb.round, ctx);
                    self.forge_init(sb.round.saturating_add(1), ctx);
                }
                GsbsMsg::SafeReq { round, set } => {
                    let mut ack = GSafeAck::sign(round, set, vec![], self.me, &kp);
                    super::corrupt(&mut ack.sig);
                    Self::send_twice(ctx, from, GsbsMsg::SafeAck(ack.reply()));
                }
                GsbsMsg::AckReq {
                    proposed,
                    ts,
                    round,
                } if !proposed.is_delta() => {
                    let values: ValueSet<V> = proposed
                        .table()
                        .records()
                        .flat_map(|(sb, _)| sb.batch.iter().cloned())
                        .collect();
                    let digest = digest(&values);
                    let mut ack = SignedAck::sign(from, ts, round, digest, self.me, &kp);
                    super::corrupt(&mut ack.sig);
                    Self::send_twice(ctx, from, GsbsMsg::Ack(ack));
                }
                GsbsMsg::AckReq { ts, round, .. } => {
                    ctx.send(from, GsbsMsg::Resync { ts, round });
                }
                _ => {}
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Answers each `safe_req`, twice, with a safe-ack it really signed —
    /// over another set than the one requested: the request without its
    /// last batch. The reply carries no echo, so a correct proposer reads
    /// it as signed over its own request, and its signature fails at
    /// quorum: it must never be counted, cost one failed batch and its
    /// fallback, and have its duplicate answered from the verifier's
    /// cache.
    pub struct WrongEcho {
        /// The adversary's id (it signs with its real key).
        pub me: ProcessId,
    }

    impl<V: Value> Process<GsbsMsg<V>> for WrongEcho {
        fn on_message(&mut self, from: ProcessId, msg: GsbsMsg<V>, ctx: &mut Context<GsbsMsg<V>>) {
            if from == ctx.me {
                return;
            }
            if let GsbsMsg::SafeReq { round, set } = msg {
                let other = set
                    .iter()
                    .take(set.len().saturating_sub(1))
                    .cloned()
                    .collect();
                let kp = Keypair::for_process(self.me);
                let reply = GSafeAck::sign(round, other, vec![], self.me, &kp).reply();
                ctx.send(from, GsbsMsg::SafeAck(reply.clone()));
                ctx.send(from, GsbsMsg::SafeAck(reply));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// The GSbS analogue of [`super::sbs::BogusRefSender`]: deltas with
    /// unresolvable proof references and bases, nacks that delta-gap at
    /// the proposer, and `Full` (forged, `AllSafe`-rejected) answers to
    /// the resync requests it provokes.
    pub struct BogusRefSender<V: Value> {
        /// The adversary's id (it signs with its real key).
        pub me: ProcessId,
        /// A value its forged batches carry.
        pub value: V,
        /// Resync requests received (the gap detections it provoked).
        pub resyncs_seen: u64,
    }

    impl<V: Value> BogusRefSender<V> {
        /// Creates the adversary.
        pub fn new(me: ProcessId, value: V) -> Self {
            BogusRefSender {
                me,
                value,
                resyncs_seen: 0,
            }
        }

        fn forged_set(&self, round: u64) -> ValueSet<ProvenBatch<V>> {
            let kp = Keypair::for_process(self.me);
            let batch: ValueSet<V> = [self.value.clone()].into_iter().collect();
            let sb = SignedBatch::sign(round, batch, self.me, &kp);
            let rcvd: ValueSet<SignedBatch<V>> = [sb.clone()].into_iter().collect();
            let ack = GSafeAck::sign(round, rcvd, vec![], self.me, &kp);
            [ProvenBatch {
                signed: sb,
                proof: Proof::new(vec![ack]),
            }]
            .into_iter()
            .collect()
        }
    }

    impl<V: Value> Process<GsbsMsg<V>> for BogusRefSender<V> {
        fn on_start(&mut self, ctx: &mut Context<GsbsMsg<V>>) {
            let forged = self.forged_set(0);
            let forged_id = forged.iter().next().expect("one record").proof.id();
            // Round 0 is trusted from the start, so these are decoded
            // (and must gap) immediately.
            ctx.broadcast(GsbsMsg::AckReq {
                proposed: ProvenUpdate::Delta {
                    base_ts: 0,
                    new: forged.clone(),
                    refs: vec![forged_id],
                },
                ts: 1,
                round: 0,
            });
            let mut b = ProofIdBuilder::new();
            b.add_ack(b"no such proof");
            ctx.broadcast(GsbsMsg::AckReq {
                proposed: ProvenUpdate::Delta {
                    base_ts: 777,
                    new: ValueSet::new(),
                    refs: vec![b.finish()],
                },
                ts: 2,
                round: 0,
            });
        }
        fn on_message(&mut self, from: ProcessId, msg: GsbsMsg<V>, ctx: &mut Context<GsbsMsg<V>>) {
            if from == ctx.me {
                return;
            }
            match msg {
                GsbsMsg::AckReq { ts, round, .. } => {
                    ctx.send(
                        from,
                        GsbsMsg::Nack {
                            accepted: ProvenUpdate::Delta {
                                base_ts: 999,
                                new: self.forged_set(round),
                                refs: vec![],
                            },
                            ts,
                            round,
                        },
                    );
                }
                GsbsMsg::Resync { ts, round } => {
                    self.resyncs_seen += 1;
                    ctx.send(
                        from,
                        GsbsMsg::AckReq {
                            proposed: ProvenUpdate::Full(self.forged_set(round)),
                            ts,
                            round,
                        },
                    );
                }
                _ => {}
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
}
