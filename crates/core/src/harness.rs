//! Scenario builders shared by tests, examples, and benches — plus the
//! conformance *observers* that turn a running simulation into a full
//! operation history (see [`crate::search`] for the driver and
//! [`crate::linearize`] for the checker that consumes it).

use crate::config::SystemConfig;
use crate::gsbs::{GsbsMsg, GsbsProcess};
use crate::gwts::{GwtsMsg, GwtsProcess};
use crate::linearize::{OP_DECIDE, OP_PROPOSE, OP_REFINE, OP_RESTART};
use crate::sbs::{SbsMsg, SbsProcess};
use crate::search::Observer;
use crate::value::Value;
use crate::valueset::ValueSet;
use crate::wts::{WtsMsg, WtsProcess};
use bgla_simnet::{
    NodeObserver, OpEvent, Process, ProcessId, Scheduler, Simulation, SimulationBuilder, Transport,
    WireMessage,
};
use std::collections::{BTreeMap, BTreeSet};

/// Builds an all-correct WTS system of `n` processes (`f` is the *bound*
/// the algorithm is configured with; no process actually misbehaves).
/// `input(i)` supplies process `i`'s initial value.
pub fn wts_system<V: Value>(
    n: usize,
    f: usize,
    input: impl Fn(usize) -> V,
    scheduler: Box<dyn Scheduler>,
) -> (Simulation<WtsMsg<V>>, SystemConfig) {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..n {
        b = b.add(Box::new(WtsProcess::new(i, config, input(i))));
    }
    (b.build(), config)
}

/// Builds a WTS system where processes in `byzantine` are replaced by the
/// supplied adversarial implementations. The adversary map is a function
/// from process id to an optional Byzantine process; `None` means the
/// process is correct.
pub fn wts_system_with_adversaries<V: Value>(
    n: usize,
    f: usize,
    input: impl Fn(usize) -> V,
    scheduler: Box<dyn Scheduler>,
    mut adversary: impl FnMut(usize, SystemConfig) -> Option<Box<dyn Process<WtsMsg<V>>>>,
) -> (Simulation<WtsMsg<V>>, SystemConfig, Vec<usize>) {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    let mut byz = Vec::new();
    for i in 0..n {
        match adversary(i, config) {
            Some(p) => {
                byz.push(i);
                b = b.add(p);
            }
            None => {
                b = b.add(Box::new(WtsProcess::new(i, config, input(i))));
            }
        }
    }
    assert!(byz.len() <= f, "more adversaries than the configured f");
    (b.build(), config, byz)
}

/// Builds an all-correct SbS system of `n` processes (mirror of
/// [`wts_system`] for the signature algorithm).
pub fn sbs_system<V: crate::value::Value>(
    n: usize,
    f: usize,
    input: impl Fn(usize) -> V,
    scheduler: Box<dyn Scheduler>,
) -> (Simulation<SbsMsg<V>>, SystemConfig) {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..n {
        b = b.add(Box::new(SbsProcess::new(i, config, input(i))));
    }
    (b.build(), config)
}

/// Builds an all-correct GWTS system running `rounds` rounds;
/// `schedule(i)` supplies process `i`'s per-round input schedule.
pub fn gwts_system<V: Value>(
    n: usize,
    f: usize,
    rounds: u64,
    schedule: impl Fn(usize) -> BTreeMap<u64, Vec<V>>,
    scheduler: Box<dyn Scheduler>,
) -> (Simulation<GwtsMsg<V>>, SystemConfig) {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..n {
        b = b.add(Box::new(GwtsProcess::new(i, config, schedule(i), rounds)));
    }
    (b.build(), config)
}

/// Builds an all-correct GSbS system (mirror of [`gwts_system`] for the
/// generalized signature algorithm).
pub fn gsbs_system<V: crate::value::Value>(
    n: usize,
    f: usize,
    rounds: u64,
    schedule: impl Fn(usize) -> BTreeMap<u64, Vec<V>>,
    scheduler: Box<dyn Scheduler>,
) -> (Simulation<GsbsMsg<V>>, SystemConfig) {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..n {
        b = b.add(Box::new(GsbsProcess::new(i, config, schedule(i), rounds)));
    }
    (b.build(), config)
}

/// Collects the artifacts of a finished WTS run over the *correct*
/// processes.
pub struct WtsRunReport<V: Value> {
    /// `(input, decision)` pairs of correct processes that decided.
    pub pairs: Vec<(V, ValueSet<V>)>,
    /// Decisions only (same order).
    pub decisions: Vec<ValueSet<V>>,
    /// Whether each correct process decided.
    pub decided: Vec<bool>,
    /// Decision depths (message delays) for those that decided.
    pub depths: Vec<u64>,
    /// Max refinements across correct processes.
    pub max_refinements: u64,
}

/// Extracts a [`WtsRunReport`] from a finished run over *any* transport
/// (a `&Simulation` or a `&TcpRuntime` both coerce). `correct` lists
/// the ids of correct processes.
pub fn wts_report<V: Value>(
    transport: &dyn Transport<WtsMsg<V>>,
    correct: &[usize],
) -> WtsRunReport<V> {
    let mut pairs = Vec::new();
    let mut decisions = Vec::new();
    let mut decided = Vec::new();
    let mut depths = Vec::new();
    let mut max_refinements = 0;
    for &i in correct {
        transport.with_process(i, &mut |proc_| {
            let p = proc_
                .as_any()
                .downcast_ref::<WtsProcess<V>>()
                .expect("correct process is a WtsProcess");
            decided.push(p.decision.is_some());
            if let Some(d) = &p.decision {
                pairs.push((p.proposal.clone(), d.clone()));
                decisions.push(d.clone());
            }
            if let Some(depth) = p.decision_depth {
                depths.push(depth);
            }
            max_refinements = max_refinements.max(p.refinements);
        });
    }
    WtsRunReport {
        pairs,
        decisions,
        decided,
        depths,
        max_refinements,
    }
}

/// Runs the full LA specification battery on a report; panics with the
/// violation on failure. `correct_inputs` is `X` in the paper.
pub fn assert_la_spec<V: Value>(report: &WtsRunReport<V>, correct_inputs: &BTreeSet<V>, f: usize) {
    crate::spec::check_liveness(&report.decided).expect("liveness");
    crate::spec::check_comparability(&report.decisions).expect("comparability");
    crate::spec::check_inclusivity(&report.pairs).expect("inclusivity");
    crate::spec::check_nontriviality(correct_inputs, &report.decisions, f).expect("non-triviality");
}

// ---------------------------------------------------------------------------
// Conformance observers
// ---------------------------------------------------------------------------
//
// Each observer is a state-diffing closure: the driver
// (`crate::search::run_traced`) calls it after `on_start` and after
// every delivery; it downcasts the honest processes, diffs their public
// state against what it already emitted, and pushes one `OpEvent` per
// new operation — `propose` for value injections, `refine` for
// `Proposed_set` snapshots (emitted whenever the set grew), `decide`
// per decision. `key` maps values to the stable `u64` keys the
// trace/checker work with (identity for integer lattices).
//
// The four algorithms share two observation shapes — one-shot (single
// proposal, single decision: WTS, SbS) and streaming (input stream,
// decision sequence: GWTS, GSbS) — expressed as two small state-access
// traits so the diffing logic exists once per shape. The per-process
// diff memory itself lives in [`OneShotDiff`]/[`StreamingDiff`], which
// both the simulation-wide observers (with restart handling) and the
// per-node TCP observers (`wts_node_observer` & co. — the TCP runtime
// never restarts processes) are built from.

/// One-shot algorithm state the conformance observers read.
trait OneShotState<V: Value>: 'static {
    fn proposal(&self) -> &V;
    fn refinements(&self) -> u64;
    fn decision(&self) -> Option<&ValueSet<V>>;
    fn proposed_values(&self) -> ValueSet<V>;
}

impl<V: Value> OneShotState<V> for WtsProcess<V> {
    fn proposal(&self) -> &V {
        &self.proposal
    }
    fn refinements(&self) -> u64 {
        self.refinements
    }
    fn decision(&self) -> Option<&ValueSet<V>> {
        self.decision.as_ref()
    }
    fn proposed_values(&self) -> ValueSet<V> {
        WtsProcess::proposed_values(self)
    }
}

impl<V: Value> OneShotState<V> for SbsProcess<V> {
    fn proposal(&self) -> &V {
        &self.proposal
    }
    fn refinements(&self) -> u64 {
        self.refinements
    }
    fn decision(&self) -> Option<&ValueSet<V>> {
        self.decision.as_ref()
    }
    fn proposed_values(&self) -> ValueSet<V> {
        SbsProcess::proposed_values(self)
    }
}

/// Streaming (generalized) algorithm state the observers read.
trait StreamingState<V: Value>: 'static {
    fn all_inputs(&self) -> &[V];
    fn decisions(&self) -> &[ValueSet<V>];
    fn round(&self) -> u64;
    fn proposed_values(&self) -> ValueSet<V>;
}

impl<V: Value> StreamingState<V> for GwtsProcess<V> {
    fn all_inputs(&self) -> &[V] {
        &self.all_inputs
    }
    fn decisions(&self) -> &[ValueSet<V>] {
        &self.decisions
    }
    fn round(&self) -> u64 {
        self.round
    }
    fn proposed_values(&self) -> ValueSet<V> {
        GwtsProcess::proposed_values(self)
    }
}

impl<V: Value> StreamingState<V> for GsbsProcess<V> {
    fn all_inputs(&self) -> &[V] {
        &self.all_inputs
    }
    fn decisions(&self) -> &[ValueSet<V>] {
        &self.decisions
    }
    fn round(&self) -> u64 {
        self.round
    }
    fn proposed_values(&self) -> ValueSet<V> {
        GsbsProcess::proposed_values(self)
    }
}

fn downcast_honest<M: WireMessage + 'static, P: 'static>(sim: &Simulation<M>, i: ProcessId) -> &P {
    sim.process_as::<P>(i)
        .unwrap_or_else(|| panic!("honest process {i} is not a {}", std::any::type_name::<P>()))
}

/// Per-process diff memory for the one-shot shape: what the observer
/// already announced about one process, and the diffing step that
/// compares live state against it.
#[derive(Default)]
struct OneShotDiff {
    proposed: bool,
    decided: bool,
    prop_last: Vec<u64>,
}

impl OneShotDiff {
    /// Diffs `p` against this memory, appending one op per new
    /// operation. `step` stamps the emitted ops (per-node observers
    /// pass 0 — the TCP log merge assigns real steps later).
    fn diff_ops<V: Value>(
        &mut self,
        p: &dyn OneShotState<V>,
        i: ProcessId,
        step: u64,
        key: fn(&V) -> u64,
        out: &mut Vec<OpEvent>,
    ) {
        if !self.proposed {
            self.proposed = true;
            out.push(OpEvent {
                step,
                process: i,
                kind: OP_PROPOSE,
                ts: 0,
                values: vec![key(p.proposal())],
            });
        }
        // Emit on ANY change of the proposed set — a transient shrink or
        // same-length value swap is exactly what the prefix checker's
        // `ProposalShrunk` rule exists to catch; gating on growth would
        // hide it.
        let prop: Vec<u64> = p.proposed_values().iter().map(&key).collect();
        if prop != self.prop_last {
            out.push(OpEvent {
                step,
                process: i,
                kind: OP_REFINE,
                ts: p.refinements(),
                values: prop.clone(),
            });
            self.prop_last = prop;
        }
        if let Some(d) = p.decision() {
            if !self.decided {
                self.decided = true;
                out.push(OpEvent {
                    step,
                    process: i,
                    kind: OP_DECIDE,
                    ts: 0,
                    values: d.iter().map(&key).collect(),
                });
            }
        }
    }
}

/// Per-process diff memory for the streaming shape (watermarks into the
/// input stream and decision sequence).
#[derive(Default)]
struct StreamingDiff {
    inputs_seen: usize,
    decides_seen: usize,
    prop_last: Vec<u64>,
}

impl StreamingDiff {
    /// Diffs `p` against this memory, appending one op per new
    /// operation (see [`OneShotDiff::observe`] for the `step`
    /// convention).
    fn diff_ops<V: Value>(
        &mut self,
        p: &dyn StreamingState<V>,
        i: ProcessId,
        step: u64,
        key: fn(&V) -> u64,
        out: &mut Vec<OpEvent>,
    ) {
        let inputs = p.all_inputs();
        if inputs.len() > self.inputs_seen {
            out.push(OpEvent {
                step,
                process: i,
                kind: OP_PROPOSE,
                ts: p.round(),
                values: inputs[self.inputs_seen..].iter().map(&key).collect(),
            });
            self.inputs_seen = inputs.len();
        }
        // Any-change emission, as in the one-shot shape: shrinks and
        // same-length swaps must reach the checker.
        let prop: Vec<u64> = p.proposed_values().iter().map(&key).collect();
        if prop != self.prop_last {
            out.push(OpEvent {
                step,
                process: i,
                kind: OP_REFINE,
                ts: p.round(),
                values: prop.clone(),
            });
            self.prop_last = prop;
        }
        let decisions = p.decisions();
        while self.decides_seen < decisions.len() {
            out.push(OpEvent {
                step,
                process: i,
                kind: OP_DECIDE,
                ts: self.decides_seen as u64,
                values: decisions[self.decides_seen].iter().map(&key).collect(),
            });
            self.decides_seen += 1;
        }
    }

    /// Post-restart re-anchoring. Everything in the restored snapshot
    /// was observed (and announced) before the crash — snapshots are
    /// taken from live state the observer had already diffed — so the
    /// input watermark just re-anchors to the restored length (a
    /// genesis rejoin re-proposes through the normal path,
    /// idempotently). Decisions are re-announced, but only the *last*
    /// one: the restored sequence is a ⊆-chain whose earlier entries
    /// would read as regressions; the final entry is the durable
    /// watermark the checker compares against the pre-crash decide.
    fn reanchor<V: Value>(
        &mut self,
        p: &dyn StreamingState<V>,
        i: ProcessId,
        step: u64,
        key: fn(&V) -> u64,
        out: &mut Vec<OpEvent>,
    ) {
        self.inputs_seen = p.all_inputs().len();
        self.prop_last.clear();
        let decisions = p.decisions();
        if let Some(last) = decisions.last() {
            out.push(OpEvent {
                step,
                process: i,
                kind: OP_DECIDE,
                ts: (decisions.len() - 1) as u64,
                values: last.iter().map(&key).collect(),
            });
        }
        self.decides_seen = decisions.len();
    }
}

fn oneshot_observer<M, P, V>(honest: Vec<ProcessId>, key: fn(&V) -> u64) -> Observer<M>
where
    M: WireMessage + 'static,
    P: OneShotState<V>,
    V: Value,
{
    let mut diffs: BTreeMap<ProcessId, OneShotDiff> = BTreeMap::new();
    let mut gen_seen: BTreeMap<ProcessId, u64> = BTreeMap::new();
    Box::new(move |sim, out| {
        let step = sim.metrics().delivered;
        for &i in &honest {
            if sim.is_crashed(i) {
                // The dead incarnation's state is frozen; nothing to observe.
                continue;
            }
            let gen = sim.restarts_of(i);
            let gseen = gen_seen.entry(i).or_insert(0);
            if gen > *gseen {
                *gseen = gen;
                out.push(OpEvent {
                    step,
                    process: i,
                    kind: OP_RESTART,
                    ts: gen,
                    values: Vec::new(),
                });
                // The diff memory described the dead incarnation: forget
                // it so everything the restored state still claims is
                // re-announced. Re-emitted propose/refine ops are
                // idempotent at the checker (which resets its refine
                // watermark at the restart op); the re-emitted decide is
                // the rollback probe — a stale snapshot's smaller
                // decision surfaces as `RestartRegression`.
                diffs.remove(&i);
            }
            let p = downcast_honest::<M, P>(sim, i);
            diffs.entry(i).or_default().diff_ops(p, i, step, key, out);
        }
    })
}

fn streaming_observer<M, P, V>(honest: Vec<ProcessId>, key: fn(&V) -> u64) -> Observer<M>
where
    M: WireMessage + 'static,
    P: StreamingState<V>,
    V: Value,
{
    let mut diffs: BTreeMap<ProcessId, StreamingDiff> = BTreeMap::new();
    let mut gen_seen: BTreeMap<ProcessId, u64> = BTreeMap::new();
    Box::new(move |sim, out| {
        let step = sim.metrics().delivered;
        for &i in &honest {
            if sim.is_crashed(i) {
                continue;
            }
            let gen = sim.restarts_of(i);
            let gseen = gen_seen.entry(i).or_insert(0);
            if gen > *gseen {
                *gseen = gen;
                out.push(OpEvent {
                    step,
                    process: i,
                    kind: OP_RESTART,
                    ts: gen,
                    values: Vec::new(),
                });
                let p = downcast_honest::<M, P>(sim, i);
                diffs.entry(i).or_default().reanchor(p, i, step, key, out);
            }
            let p = downcast_honest::<M, P>(sim, i);
            diffs.entry(i).or_default().diff_ops(p, i, step, key, out);
        }
    })
}

fn oneshot_node_observer<M, P, V>(me: ProcessId, key: fn(&V) -> u64) -> NodeObserver<M>
where
    M: WireMessage + 'static,
    P: OneShotState<V>,
    V: Value,
{
    let mut diff = OneShotDiff::default();
    Box::new(move |proc_, out| {
        let p = proc_
            .as_any()
            .downcast_ref::<P>()
            .unwrap_or_else(|| panic!("node {me} is not a {}", std::any::type_name::<P>()));
        diff.diff_ops(p, me, 0, key, out);
    })
}

fn streaming_node_observer<M, P, V>(me: ProcessId, key: fn(&V) -> u64) -> NodeObserver<M>
where
    M: WireMessage + 'static,
    P: StreamingState<V>,
    V: Value,
{
    let mut diff = StreamingDiff::default();
    Box::new(move |proc_, out| {
        let p = proc_
            .as_any()
            .downcast_ref::<P>()
            .unwrap_or_else(|| panic!("node {me} is not a {}", std::any::type_name::<P>()));
        diff.diff_ops(p, me, 0, key, out);
    })
}

/// Observer for systems of [`WtsProcess`]es (honest ids only —
/// adversaries have no conforming state to observe).
pub fn wts_observer<V: Value>(honest: Vec<ProcessId>, key: fn(&V) -> u64) -> Observer<WtsMsg<V>> {
    oneshot_observer::<WtsMsg<V>, WtsProcess<V>, V>(honest, key)
}

/// Observer for systems of [`SbsProcess`]es.
pub fn sbs_observer<V: Value>(honest: Vec<ProcessId>, key: fn(&V) -> u64) -> Observer<SbsMsg<V>> {
    oneshot_observer::<SbsMsg<V>, SbsProcess<V>, V>(honest, key)
}

/// Observer for systems of [`GwtsProcess`]es.
pub fn gwts_observer<V: Value>(honest: Vec<ProcessId>, key: fn(&V) -> u64) -> Observer<GwtsMsg<V>> {
    streaming_observer::<GwtsMsg<V>, GwtsProcess<V>, V>(honest, key)
}

/// Observer for systems of [`GsbsProcess`]es.
pub fn gsbs_observer<V: Value>(honest: Vec<ProcessId>, key: fn(&V) -> u64) -> Observer<GsbsMsg<V>> {
    streaming_observer::<GsbsMsg<V>, GsbsProcess<V>, V>(honest, key)
}

// Per-node observers for real transports: same diffing as the
// simulation-wide observers above, one process each, no restart
// handling (the TCP runtime does not restart processes — durable
// snapshots compose at the layer above). Emitted ops carry `step: 0`;
// the transport's log merge assigns real steps from causal order.

/// Per-node observer for one honest [`WtsProcess`] (pass to
/// `TcpRuntimeBuilder::add_observed`).
pub fn wts_node_observer<V: Value>(me: ProcessId, key: fn(&V) -> u64) -> NodeObserver<WtsMsg<V>> {
    oneshot_node_observer::<WtsMsg<V>, WtsProcess<V>, V>(me, key)
}

/// Per-node observer for one honest [`SbsProcess`].
pub fn sbs_node_observer<V: Value>(me: ProcessId, key: fn(&V) -> u64) -> NodeObserver<SbsMsg<V>> {
    oneshot_node_observer::<SbsMsg<V>, SbsProcess<V>, V>(me, key)
}

/// Per-node observer for one honest [`GwtsProcess`].
pub fn gwts_node_observer<V: Value>(me: ProcessId, key: fn(&V) -> u64) -> NodeObserver<GwtsMsg<V>> {
    streaming_node_observer::<GwtsMsg<V>, GwtsProcess<V>, V>(me, key)
}

/// Per-node observer for one honest [`GsbsProcess`].
pub fn gsbs_node_observer<V: Value>(me: ProcessId, key: fn(&V) -> u64) -> NodeObserver<GsbsMsg<V>> {
    streaming_node_observer::<GsbsMsg<V>, GsbsProcess<V>, V>(me, key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgla_simnet::FifoScheduler;

    #[test]
    fn report_collects_everything() {
        let (mut sim, config) = wts_system(4, 1, |i| i as u64, Box::new(FifoScheduler::new()));
        sim.run(1_000_000);
        let correct: Vec<usize> = (0..config.n).collect();
        let report = wts_report(&sim, &correct);
        assert_eq!(report.decided.len(), 4);
        let inputs: BTreeSet<u64> = (0..4).map(|i| i as u64).collect();
        assert_la_spec(&report, &inputs, config.f);
        assert!(report.depths.iter().all(|&d| d <= 7));
    }
}
