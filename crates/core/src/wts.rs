//! **Wait Till Safe** (WTS) — Algorithms 1 and 2 of the paper.
//!
//! One-shot Byzantine Lattice Agreement in two phases:
//!
//! 1. **Values Disclosure**: every proposer reliably-broadcasts its input.
//!    Delivered values accumulate in the *Safe-values Set* (`SvS`); the
//!    reliable broadcast prevents a Byzantine proposer from disclosing
//!    different values to different processes. A process moves on once it
//!    has seen `n − f` disclosures (not strictly necessary, but it yields
//!    the `O(f)` delay bound — an ablation bench measures the difference).
//! 2. **Deciding**: a proposer repeatedly asks acceptors to ack its
//!    `Proposed_set`; acceptors ack supersets of what they previously
//!    accepted and nack (with their accepted set) otherwise. A proposal
//!    acked by the Byzantine quorum `⌊(n+f)/2⌋ + 1` is decided. During
//!    this phase correct processes only *handle* messages whose values all
//!    lie in `SvS` (the `SAFE` predicate); others wait in a buffer.
//!
//! One [`WtsProcess`] plays both the proposer and acceptor roles, as the
//! paper's deployment note allows.
//!
//! # Representation notes
//!
//! Sets travel as [`ValueSet`] (O(1)-clone, merge-walk joins) and
//! `ack_req`s are delta-encoded ([`SetUpdate`]): after an acceptor has
//! replied to timestamp `t`, later requests to it carry only
//! `Proposed_set ∖ Proposed_set@t`. Acks carry **no set at all** — a
//! correct acceptor's ack echoes exactly the proposer's own
//! `Proposed_set@ts`, which the proposer still holds, so only the
//! timestamp needs to travel; the proposer applies the `SAFE` guard to
//! its own copy, which is the same check the echo used to feed.

use crate::config::SystemConfig;
use crate::value::Value;
use crate::valueset::{DeltaReceiver, DeltaSender, SetUpdate, ValueSet};
use bgla_codec::{decode_frame, encode_frame, var_len, CodecError, Reader, Wire, Writer};
use bgla_rbcast::{RbMsg, RbcastEngine};
use bgla_simnet::{Context, Process, ProcessId, WireMessage};
use std::any::Any;

/// Frame kind of a [`WtsProcess`] crash-recovery snapshot.
pub const WTS_SNAPSHOT_KIND: u16 = 0x0105;

/// Wire messages of WTS.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum WtsMsg<V: Value> {
    /// Disclosure-phase traffic: reliable broadcast of initial values.
    Rb(RbMsg<V>),
    /// Proposer → acceptors: request acks for the (delta-encoded)
    /// `Proposed_set`, tagged with the proposer's refinement timestamp.
    AckReq {
        /// Current `Proposed_set` (full on first contact, delta after).
        proposed: SetUpdate<V>,
        /// Refinement timestamp `ts`.
        ts: u64,
    },
    /// Acceptor → proposer: the proposal of `ts` was accepted. The
    /// accepted set is by construction `Proposed_set@ts`, which the
    /// proposer holds — no payload travels.
    Ack {
        /// Timestamp copied from the request.
        ts: u64,
    },
    /// Acceptor → proposer: refused; here is what I had accepted.
    Nack {
        /// The acceptor's `Accepted_set` at refusal time.
        accepted: ValueSet<V>,
        /// Timestamp copied from the request.
        ts: u64,
    },
}

impl<V: Value> WireMessage for WtsMsg<V> {
    fn kind(&self) -> &'static str {
        match self {
            WtsMsg::Rb(m) => m.kind(),
            WtsMsg::AckReq { .. } => "ack_req",
            WtsMsg::Ack { .. } => "ack",
            WtsMsg::Nack { .. } => "nack",
        }
    }
    /// The length of the [`Wire`] encoding below, field for field.
    fn wire_size(&self) -> usize {
        1 + match self {
            WtsMsg::Rb(m) => m.header_len() + m.value().wire_size(),
            WtsMsg::AckReq { proposed, ts } => proposed.wire_size() + var_len(*ts),
            WtsMsg::Ack { ts } => var_len(*ts),
            WtsMsg::Nack { accepted, ts } => accepted.wire_size() + var_len(*ts),
        }
    }
}

impl<V: Value> Wire for WtsMsg<V> {
    fn encode(&self, w: &mut Writer) {
        match self {
            WtsMsg::Rb(m) => {
                w.u8(0);
                m.encode(w);
            }
            WtsMsg::AckReq { proposed, ts } => {
                w.u8(1);
                proposed.encode(w);
                w.var(*ts);
            }
            WtsMsg::Ack { ts } => {
                w.u8(2);
                w.var(*ts);
            }
            WtsMsg::Nack { accepted, ts } => {
                w.u8(3);
                accepted.encode(w);
                w.var(*ts);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(WtsMsg::Rb(Wire::decode(r)?)),
            1 => Ok(WtsMsg::AckReq {
                proposed: Wire::decode(r)?,
                ts: r.var()?,
            }),
            2 => Ok(WtsMsg::Ack { ts: r.var()? }),
            3 => Ok(WtsMsg::Nack {
                accepted: Wire::decode(r)?,
                ts: r.var()?,
            }),
            _ => Err(CodecError::Invalid("wts msg tag")),
        }
    }
}

/// Proposer phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WtsState {
    /// Still collecting disclosures.
    Disclosing,
    /// Proposing / refining.
    Proposing,
    /// Decided (terminal).
    Decided,
}

impl Wire for WtsState {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            WtsState::Disclosing => 0,
            WtsState::Proposing => 1,
            WtsState::Decided => 2,
        });
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(WtsState::Disclosing),
            1 => Ok(WtsState::Proposing),
            2 => Ok(WtsState::Decided),
            _ => Err(CodecError::Invalid("wts state tag")),
        }
    }
}

/// A correct WTS participant (proposer + acceptor).
pub struct WtsProcess<V: Value> {
    /// System parameters.
    pub config: SystemConfig,
    me: ProcessId,
    /// This process's initial value (`pro_i`).
    pub proposal: V,
    /// Application-level validity predicate ("is an element of the
    /// lattice", Alg. 1 line 10). Defaults to accepting everything.
    // bgla-lint: allow(wire-coverage, "plain fn pointer; not serializable, re-supplied at construction")
    validator: fn(&V) -> bool,
    /// Ablation switch: propose after the *own* disclosure only instead
    /// of waiting for `n − f` (the paper notes the wait "is not strictly
    /// necessary, but allows us to show a bound of O(f) on the message
    /// delays"). Measured by `exp_ablation`.
    eager: bool,

    state: WtsState,
    rb: RbcastEngine<V>,
    /// Safe-values set: everything reliably delivered in the disclosure
    /// phase (keyed by origin — Observation 1: at most one per process).
    svs: ValueSet<V>,
    /// How many distinct origins have disclosed.
    init_counter: usize,
    /// Current proposal (grows monotonically).
    proposed_set: ValueSet<V>,
    /// Who acked the current timestamp.
    ack_set: std::collections::BTreeSet<ProcessId>,
    ts: u64,
    /// Acceptor role: greatest set accepted so far.
    accepted_set: ValueSet<V>,
    /// Messages waiting to become safe / relevant.
    waiting: Vec<(ProcessId, WtsMsg<V>)>,
    /// Proposer-side delta bookkeeping (snapshots + reply watermarks).
    // bgla-lint: allow(wire-coverage, "sender watermarks are peer-relative; a restarted process resumes in full-set mode by design")
    delta_tx: DeltaSender<V>,
    /// Acceptor-side delta bases (consumed proposals by proposer, ts).
    // bgla-lint: allow(wire-coverage, "delta bases are peer-relative; a restarted process resumes in full-set mode by design")
    delta_rx: DeltaReceiver<V>,
    /// Set by [`WtsProcess::from_snapshot`]: the next `on_start` is a
    /// *recovery* boot (re-announce instead of initialize).
    // bgla-lint: allow(wire-coverage, "boot flag: decode sets it true to mark a recovered process")
    recovered: bool,

    /// The decision, once made (`Stability`: write-once).
    pub decision: Option<ValueSet<V>>,
    /// Causal depth (message delays) at decision time.
    pub decision_depth: Option<u64>,
    /// Number of proposal refinements performed (Lemma 3 bounds this by
    /// `f`).
    pub refinements: u64,
}

impl<V: Value> WtsProcess<V> {
    /// Creates a correct participant with initial value `proposal`.
    pub fn new(me: ProcessId, config: SystemConfig, proposal: V) -> Self {
        WtsProcess {
            config,
            me,
            proposal,
            validator: |_| true,
            eager: false,
            state: WtsState::Disclosing,
            rb: RbcastEngine::new_unchecked(config.n, config.f),
            svs: ValueSet::new(),
            init_counter: 0,
            proposed_set: ValueSet::new(),
            ack_set: std::collections::BTreeSet::new(),
            ts: 0,
            accepted_set: ValueSet::new(),
            waiting: Vec::new(),
            delta_tx: DeltaSender::new(),
            delta_rx: DeltaReceiver::new(),
            recovered: false,
            decision: None,
            decision_depth: None,
            refinements: 0,
        }
    }

    /// Installs a validity predicate for disclosed values.
    pub fn with_validator(mut self, v: fn(&V) -> bool) -> Self {
        self.validator = v;
        self
    }

    /// Ablation: skip the `n − f` disclosure wait (start proposing after
    /// the first disclosure lands). Correct but loses the O(f) delay
    /// bound — the proposal starts smaller, so more nack-refinements
    /// happen.
    pub fn with_eager_proposing(mut self) -> Self {
        self.eager = true;
        self
    }

    /// The `SAFE` predicate: every value in `set` has been disclosed.
    fn safe(&self, set: &ValueSet<V>) -> bool {
        set.is_subset(&self.svs)
    }

    /// Process id (for diagnostics).
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Current state.
    pub fn state(&self) -> WtsState {
        self.state
    }

    /// Current safe-values set size (diagnostics / tests).
    pub fn svs_len(&self) -> usize {
        self.svs.len()
    }

    /// The current `Proposed_set` (cheap `O(1)` clone) — read by the
    /// conformance observers to emit refine-snapshot op events.
    pub fn proposed_values(&self) -> ValueSet<V> {
        self.proposed_set.clone()
    }

    fn send_ack_req(&mut self, ctx: &mut Context<WtsMsg<V>>) {
        self.delta_tx.record_broadcast(self.ts, &self.proposed_set);
        let updates = self
            .delta_tx
            .encode_broadcast(self.config.n, self.ts, &self.proposed_set);
        for (to, proposed) in updates.into_iter().enumerate() {
            ctx.send(
                to,
                WtsMsg::AckReq {
                    proposed,
                    ts: self.ts,
                },
            );
        }
    }

    /// Handles one buffered or fresh message if its guard holds.
    /// Returns `true` when consumed.
    fn try_handle(
        &mut self,
        from: ProcessId,
        msg: &WtsMsg<V>,
        ctx: &mut Context<WtsMsg<V>>,
    ) -> bool {
        match msg {
            // bgla-lint: allow(byzantine-panic, "local invariant: the buffering site only ever stores ack_req / nack")
            WtsMsg::Rb(_) => unreachable!("rb messages are handled eagerly"),
            // ----- Acceptor role (Algorithm 2) -----
            WtsMsg::AckReq { proposed, ts } => {
                let Some(full) = self.delta_rx.resolve(from, proposed) else {
                    return true; // delta gap (Byzantine sender): drop
                };
                if !self.safe(&full) {
                    return false;
                }
                self.delta_rx.record(from, *ts, &full);
                if self.accepted_set.is_subset(&full) {
                    self.accepted_set = full;
                    ctx.send(from, WtsMsg::Ack { ts: *ts });
                } else {
                    ctx.send(
                        from,
                        WtsMsg::Nack {
                            accepted: self.accepted_set.clone(),
                            ts: *ts,
                        },
                    );
                    self.accepted_set.join_with(&full);
                }
                true
            }
            // ----- Proposer role (Algorithm 1) -----
            WtsMsg::Ack { ts } => {
                self.delta_tx.record_reply(from, *ts);
                if *ts < self.ts || self.state == WtsState::Decided {
                    return true; // stale: drop
                }
                // A correct acceptor's ack stands for Proposed_set@ts,
                // which (ts == self.ts) is exactly `proposed_set`; the
                // SAFE guard applies to our own copy.
                if self.state != WtsState::Proposing
                    || *ts != self.ts
                    || !self.safe(&self.proposed_set)
                {
                    return false;
                }
                self.ack_set.insert(from);
                if self.ack_set.len() >= self.config.quorum() {
                    self.state = WtsState::Decided;
                    self.decision = Some(self.proposed_set.clone());
                    self.decision_depth = Some(ctx.depth);
                }
                true
            }
            WtsMsg::Nack { accepted, ts } => {
                self.delta_tx.record_reply(from, *ts);
                if *ts < self.ts || self.state == WtsState::Decided {
                    return true; // stale: drop
                }
                if self.state != WtsState::Proposing || *ts != self.ts || !self.safe(accepted) {
                    return false;
                }
                let grows = !accepted.is_subset(&self.proposed_set);
                if grows {
                    self.proposed_set.join_with(accepted);
                    self.ack_set.clear();
                    self.ts += 1;
                    self.refinements += 1;
                    self.send_ack_req(ctx);
                }
                true
            }
        }
    }

    /// Serializes the durable state as a checksummed snapshot frame
    /// ([`WTS_SNAPSHOT_KIND`]). See the module docs of
    /// [`crate::recovery`] for the durable/volatile contract.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_frame(WTS_SNAPSHOT_KIND, self)
    }

    /// Reconstructs a process from a snapshot produced by
    /// [`Self::snapshot_bytes`]. Volatile state (delta watermarks, the
    /// validator) restarts fresh; chain `.with_validator` to re-install
    /// a predicate. The next `on_start` re-announces instead of
    /// initializing.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, CodecError> {
        decode_frame(WTS_SNAPSHOT_KIND, bytes)
    }

    /// Re-scans the waiting buffer until no more progress is possible.
    fn drain_waiting(&mut self, ctx: &mut Context<WtsMsg<V>>) {
        loop {
            let mut progressed = false;
            for (from, msg) in std::mem::take(&mut self.waiting) {
                if self.try_handle(from, &msg, ctx) {
                    progressed = true;
                } else {
                    self.waiting.push((from, msg));
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

/// The durable half of a [`WtsProcess`]. Volatile and therefore absent:
/// the delta watermarks (`delta_tx`/`delta_rx` — peer-held-state claims
/// that are stale after an amnesiac restart; fresh trackers ride the
/// gap→`Full` fallback) and the `validator` fn pointer (configuration,
/// re-installed by the harness).
impl<V: Value> Wire for WtsProcess<V> {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.usize(self.me);
        self.proposal.encode(w);
        self.eager.encode(w);
        self.state.encode(w);
        self.rb.encode(w);
        self.svs.encode(w);
        w.usize(self.init_counter);
        self.proposed_set.encode(w);
        self.ack_set.encode(w);
        w.var(self.ts);
        self.accepted_set.encode(w);
        self.waiting.encode(w);
        self.decision.encode(w);
        self.decision_depth.encode(w);
        w.var(self.refinements);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let config = SystemConfig::decode(r)?;
        let me = r.usize()?;
        let proposal = V::decode(r)?;
        let eager = bool::decode(r)?;
        let state = WtsState::decode(r)?;
        let rb = Wire::decode(r)?;
        let svs = Wire::decode(r)?;
        let init_counter = r.usize()?;
        let proposed_set = Wire::decode(r)?;
        let ack_set = Wire::decode(r)?;
        let ts = r.var()?;
        let accepted_set = Wire::decode(r)?;
        let waiting = Wire::decode(r)?;
        Ok(WtsProcess {
            config,
            me,
            proposal,
            validator: |_| true,
            eager,
            state,
            rb,
            svs,
            init_counter,
            proposed_set,
            ack_set,
            ts,
            accepted_set,
            waiting,
            delta_tx: DeltaSender::new(),
            delta_rx: DeltaReceiver::new(),
            recovered: true,
            decision: Wire::decode(r)?,
            decision_depth: Wire::decode(r)?,
            refinements: r.var()?,
        })
    }
}

impl<V: Value> Process<WtsMsg<V>> for WtsProcess<V> {
    fn on_start(&mut self, ctx: &mut Context<WtsMsg<V>>) {
        if self.recovered {
            // Recovery boot. Re-announce the disclosure (peers' rb
            // guards dedupe it; our own restored engine refuses to
            // re-echo) and, when mid-proposal, re-issue the ack request
            // for the current timestamp — the acks that were in flight
            // at crash time were swept with the crash.
            self.recovered = false;
            for m in self.rb.broadcast(0, self.proposal.clone()) {
                ctx.broadcast(WtsMsg::Rb(m));
            }
            if self.state == WtsState::Proposing {
                self.ack_set.clear();
                self.send_ack_req(ctx);
            }
            // Whatever the snapshot parked is retried once now; after
            // this, only a delivery or a handled message triggers a retry.
            self.drain_waiting(ctx);
            return;
        }
        // Values Disclosure Phase: commit to the initial value.
        self.proposed_set.insert(self.proposal.clone());
        for m in self.rb.broadcast(0, self.proposal.clone()) {
            ctx.broadcast(WtsMsg::Rb(m));
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: WtsMsg<V>, ctx: &mut Context<WtsMsg<V>>) {
        match msg {
            WtsMsg::Rb(rb) => {
                let (out, deliveries) = self.rb.on_message(from, rb);
                for m in out {
                    ctx.broadcast(WtsMsg::Rb(m));
                }
                if deliveries.is_empty() {
                    return; // nothing a parked message waits on has moved
                }
                for d in deliveries {
                    if !(self.validator)(&d.value) {
                        continue; // not an element of the lattice
                    }
                    // SvS keeps growing even after we leave the
                    // disclosure phase ("operations of Phase 1 could run
                    // in parallel with Phase 2"); only Proposed_set stops
                    // absorbing disclosures.
                    self.svs.insert(d.value.clone());
                    self.init_counter += 1;
                    if self.state == WtsState::Disclosing {
                        self.proposed_set.insert(d.value);
                    }
                }
                // Enough disclosures? Start proposing.
                let threshold = if self.eager {
                    1
                } else {
                    self.config.disclosure_threshold()
                };
                if self.state == WtsState::Disclosing && self.init_counter >= threshold {
                    self.state = WtsState::Proposing;
                    self.send_ack_req(ctx);
                }
                self.drain_waiting(ctx);
            }
            other => {
                if !self.try_handle(from, &other, ctx) {
                    self.waiting.push((from, other));
                } else {
                    self.drain_waiting(ctx);
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
    use crate::harness::wts_system;
    use crate::spec;
    use bgla_simnet::{RandomScheduler, SimulationBuilder};

    #[test]
    fn four_honest_processes_agree() {
        let config = SystemConfig::new(4, 1);
        let mut b = SimulationBuilder::new();
        for i in 0..4 {
            b = b.add(Box::new(WtsProcess::new(i, config, 100 + i as u64)));
        }
        let mut sim = b.build();
        let out = sim.run(1_000_000);
        assert!(out.quiescent);
        let mut decisions = Vec::new();
        for i in 0..4 {
            let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
            let d = p.decision.as_ref().expect("every correct process decides");
            // Inclusivity: own value present.
            assert!(d.contains(&(100 + i as u64)));
            decisions.push(d.clone());
        }
        spec::check_comparability(&decisions).unwrap();
    }

    #[test]
    fn decisions_comparable_under_random_schedules() {
        for seed in 0..30 {
            let (mut sim, config) =
                wts_system(7, 2, |i| i as u64, Box::new(RandomScheduler::new(seed)));
            let out = sim.run(5_000_000);
            assert!(out.quiescent, "seed {seed}");
            let mut decisions = Vec::new();
            for i in 0..config.n {
                let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
                let d = p.decision.clone().expect("liveness");
                assert!(d.contains(&(i as u64)), "inclusivity @ {i} (seed {seed})");
                decisions.push(d);
            }
            spec::check_comparability(&decisions).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn decision_depth_within_theorem_3_bound() {
        for (n, f) in [(4usize, 1usize), (7, 2), (10, 3)] {
            let (mut sim, _) = wts_system(
                n,
                f,
                |i| i as u64,
                Box::new(bgla_simnet::FifoScheduler::new()),
            );
            sim.run(10_000_000);
            for i in 0..n {
                let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
                let depth = p.decision_depth.expect("decided");
                assert!(
                    depth <= (2 * f as u64) + 5,
                    "n={n} f={f} p{i}: depth {depth} > 2f+5"
                );
            }
        }
    }

    #[test]
    fn refinements_bounded_by_f() {
        for seed in 0..20 {
            let (mut sim, config) =
                wts_system(7, 2, |i| i as u64, Box::new(RandomScheduler::new(seed)));
            sim.run(5_000_000);
            for i in 0..config.n {
                let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
                assert!(
                    p.refinements <= config.f as u64,
                    "seed {seed} p{i}: {} refinements > f={}",
                    p.refinements,
                    config.f
                );
            }
        }
    }

    #[test]
    fn validator_filters_garbage() {
        // Values >= 1000 are "not elements of the lattice".
        let config = SystemConfig::new(4, 1);
        let mut b = SimulationBuilder::new();
        for i in 0..4 {
            let value = if i == 3 { 5000u64 } else { i as u64 };
            b = b.add(Box::new(
                WtsProcess::new(i, config, value).with_validator(|v| *v < 1000),
            ));
        }
        let mut sim = b.build();
        let out = sim.run(1_000_000);
        assert!(out.quiescent);
        for i in 0..3 {
            let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
            let d = p.decision.as_ref().expect("correct processes decide");
            assert!(!d.contains(&5000), "garbage value decided at p{i}");
        }
    }
}
