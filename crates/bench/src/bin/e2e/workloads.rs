//! The six workloads: how each system is built from a seed, driven for one
//! trial, and checked. A trial is one fresh system run to its stop
//! condition; what is *measured* over trials lives in `measure.rs`.
//!
//! Load is closed-loop and needs no thread of its own: GWTS/GSbS inputs are
//! per-round schedules loaded into the proposers (round `r+1` starts when
//! round `r` decides), RSM clients are `WorkloadClient` processes inside
//! the system. The only threads are the system's own.

use crate::kernels;
use crate::observed::{collect, NodeRec, Observed, OpRec, Probe, Rounded, Sink, Span};
use crate::stats::{mix, process_cpu, process_cpu_fine, task_stats};
use bgla_codec::Wire;
use bgla_core::adversary;
use bgla_core::gsbs::{GsbsMsg, GsbsProcess};
use bgla_core::gwts::{GwtsMsg, GwtsProcess};
use bgla_core::harness::{gsbs_node_observer, gsbs_observer, gwts_node_observer, gwts_observer};
use bgla_core::linearize::{check_trace, CheckerConfig};
use bgla_core::search::{op_priority, run_traced, Observer};
use bgla_core::{SystemConfig, Value, ValueSet};
use bgla_net::{FaultConfig, FaultPlan, NetConfig, TcpRuntimeBuilder};
use bgla_rbcast::RbMsg;
use bgla_rsm::{checks, ClientOp, Op, Replica, RsmMsg, WorkloadClient};
use bgla_simnet::{
    Metrics, NodeObserver, Process, ProcessId, RandomScheduler, Simulation, SimulationBuilder,
    Trace, Transport, WireMessage,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// GWTS under the simulator.
    SimGwts,
    /// GSbS under the simulator.
    SimGsbs,
    /// GWTS over loopback TCP, optionally under `FaultConfig::chaos()`.
    TcpGwts { chaos: bool },
    /// Four replicas and closed-loop clients under the simulator.
    SimRsm { reads: bool },
}

/// One named workload. For stream systems `rounds`/`per_round` shape the
/// input schedule (inputs go into the first `rounds − 2` rounds, the last
/// two drain); for the RSM they are clients and ops per client.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub system: SystemKind,
    pub n: usize,
    pub f: usize,
    pub rounds: u64,
    pub per_round: u64,
    /// Timed trials of the full (non `--seconds`) mode.
    pub trials: usize,
    /// Wall deadline of the workload's child process in the full mode.
    pub deadline_s: u64,
}

/// RSM replicas stop after this many GWTS rounds — three times what a
/// healthy run of either RSM workload needs — so a hung client ends the
/// trial by quiescence instead of running forever.
pub const RSM_ROUND_CAP: u64 = 600;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sim_gwts_n10",
        why: "Signature-free streaming at the largest n that fits: ValueSet joins, rbcast \
              echo/ready, GWTS handlers and the sim engine do all the work; crypto, codec, net none.",
        system: SystemKind::SimGwts,
        n: 10,
        f: 3,
        rounds: 20,
        per_round: 4,
        trials: 20,
        deadline_s: 120,
    },
    Workload {
        name: "sim_gsbs_n7",
        why: "Same driver, opposite profile: ~150x fewer deliveries for the same wall time; in-repo \
              Ed25519, proofs, SignedSet and proven deltas dominate; engine and rbcast do almost nothing.",
        system: SystemKind::SimGsbs,
        n: 7,
        f: 2,
        rounds: 10,
        per_round: 2,
        trials: 16,
        deadline_s: 120,
    },
    Workload {
        name: "tcp_gwts_n4",
        why: "Real wall-clock latency on fault-free loopback: codec encode/decode/checksum, poller \
              sweep, node locks, ack batching; timers idle. Smallest Byzantine-tolerant n for 2 cores.",
        system: SystemKind::TcpGwts { chaos: false },
        n: 4,
        f: 1,
        rounds: 40,
        per_round: 4,
        trials: 16,
        deadline_s: 150,
    },
    Workload {
        name: "tcp_gwts_n4_chaos",
        why: "Same protocol under FaultConfig::chaos(): latency is set by retransmit timers, the \
              wheel, reconnect and resync. A timer fix must move this and leave tcp_gwts_n4 alone.",
        system: SystemKind::TcpGwts { chaos: true },
        n: 4,
        f: 1,
        rounds: 10,
        per_round: 4,
        trials: 8,
        deadline_s: 170,
    },
    Workload {
        name: "sim_rsm_update",
        why: "GWTS used the RSM way: new_value at run time, Decide fan-out, pending_notify; the \
              write path of 4 replicas under 8 closed-loop clients.",
        system: SystemKind::SimRsm { reads: false },
        n: 4,
        f: 1,
        rounds: 8,
        per_round: 100,
        trials: 40,
        deadline_s: 120,
    },
    Workload {
        name: "sim_rsm_read",
        why: "Same layer, 75% reads: adds the nop + CnfReq/CnfRep confirmation path through \
              has_committed, which scans ack_history and races its pruning.",
        system: SystemKind::SimRsm { reads: true },
        n: 4,
        f: 1,
        rounds: 8,
        per_round: 100,
        trials: 40,
        deadline_s: 150,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn is_tcp(&self) -> bool {
        matches!(self.system, SystemKind::TcpGwts { .. })
    }

    /// Ops one honest run attempts.
    pub fn ops_per_trial(&self, honest: usize) -> usize {
        match self.system {
            SystemKind::SimRsm { .. } => (self.rounds * self.per_round) as usize,
            _ => honest * ((self.rounds - 2) * self.per_round) as usize,
        }
    }

    /// The agreement layer under this workload and its message kinds.
    pub fn algo(&self) -> (&'static str, &'static [&'static str]) {
        match self.system {
            SystemKind::SimGsbs => (GsbsProcess::<u64>::LAYER, GsbsProcess::<u64>::KINDS),
            _ => (GwtsProcess::<u64>::LAYER, GwtsProcess::<u64>::KINDS),
        }
    }

    /// The paper's bound on one decision, in message delays, for this `f`.
    pub fn paper_delay_bound(&self) -> u64 {
        let f = self.f as u64;
        match self.system {
            SystemKind::SimGsbs => 5 + 4 * f,
            _ => 2 * f + 5,
        }
    }
}

/// How a trial is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Build the system and stop: a set-up sample.
    SetupOnly,
    /// Wrapped, no spans: what end-to-end numbers come from.
    Timed,
    /// Wrapped with spans and a message corpus; `kernels` also times the
    /// layer kernels on the trial's corpus and end-of-run state (once per
    /// pass is enough — they cost more than the trial).
    Traced { kernels: bool },
    /// Wrapped, recording a full history that must pass the checker.
    Check,
    /// As `Check`, with `f` processes replaced by adversaries (sim only).
    Byz,
    /// Bare processes, no wrapper: the wrapper's own overhead.
    Bare,
}

impl Mode {
    fn traced(self) -> bool {
        matches!(self, Mode::Traced { .. })
    }

    fn kernels(self) -> bool {
        matches!(self, Mode::Traced { kernels: true })
    }
}

/// A completed op and where it completed.
#[derive(Debug, Clone, Copy)]
pub struct DoneOp {
    pub node: ProcessId,
    pub rec: OpRec,
}

/// What one trial produced.
#[derive(Default)]
pub struct Trial {
    pub setup: Duration,
    pub run: Duration,
    /// Process CPU over the run, at scheduler precision.
    pub cpu: Duration,
    /// The same split into user and system, in 10 ms ticks.
    pub cpu_user: Duration,
    pub cpu_sys: Duration,
    pub attempted: usize,
    pub ops: Vec<DoneOp>,
    /// `Err` when the trial's outputs are wrong; every op then counts failed.
    pub verdict: Option<Result<(), String>>,
    pub metrics: Option<Metrics>,
    pub spans: Vec<(ProcessId, Span)>,
    /// Per-layer values this trial contributes, by metric name.
    pub layer: BTreeMap<String, f64>,
    /// Free-form findings worth printing (who hung, what the checker said).
    pub notes: Vec<String>,
}

impl Trial {
    pub fn sound(&self) -> bool {
        matches!(self.verdict, Some(Ok(())))
    }

    fn absorb<M>(&mut self, recs: Vec<NodeRec<M>>) -> Vec<M> {
        let mut corpus = Vec::new();
        for rec in recs {
            self.ops.extend(rec.ops.iter().map(|&op| DoneOp {
                node: rec.node,
                rec: op,
            }));
            self.spans.extend(rec.spans.iter().map(|&s| (rec.node, s)));
            corpus.extend(rec.corpus);
            let gauge = self.layer.entry("gauge_max".into()).or_insert(0.0);
            *gauge = gauge.max(rec.gauge_max as f64);
        }
        corpus
    }
}

/// Clocks read around a trial's run.
struct Meter {
    wall: Instant,
    cpu: Duration,
    cpu_split: (Duration, Duration),
}

impl Meter {
    fn start() -> Meter {
        Meter {
            cpu_split: process_cpu(),
            cpu: process_cpu_fine(),
            wall: Instant::now(),
        }
    }

    fn stop(self, trial: &mut Trial) {
        trial.run = self.wall.elapsed();
        trial.cpu = process_cpu_fine().saturating_sub(self.cpu);
        let (user, sys) = process_cpu();
        trial.cpu_user = user.saturating_sub(self.cpu_split.0);
        trial.cpu_sys = sys.saturating_sub(self.cpu_split.1);
    }
}

/// Runs one trial of `w` with `seed` (scheduler, fault plan, transport
/// jitter and inputs all derive from it).
pub fn run_trial(w: &Workload, seed: u64, mode: Mode) -> Trial {
    match w.system {
        SystemKind::SimGwts => sim_stream_trial::<GwtsProcess<u64>>(w, seed, mode),
        SystemKind::SimGsbs => sim_stream_trial::<GsbsProcess<u64>>(w, seed, mode),
        SystemKind::TcpGwts { chaos } => tcp_stream_trial::<GwtsProcess<u64>>(w, seed, mode, chaos),
        SystemKind::SimRsm { reads } => rsm_trial(w, seed, mode, reads),
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The `k`-th value process `i` feeds in round `r`: unique by its low 32
/// bits, seed-scrambled in the high ones so set order is not insert order.
pub fn input_value(seed: u64, i: usize, r: u64, k: u64) -> u64 {
    let idx = ((i as u64) << 24) | (r << 8) | k;
    (mix(seed ^ idx) << 32) | idx
}

pub fn stream_schedule(w: &Workload, seed: u64, i: usize) -> BTreeMap<u64, Vec<u64>> {
    (0..w.rounds - 2)
        .map(|r| {
            let batch = (0..w.per_round)
                .map(|k| input_value(seed, i, r, k))
                .collect();
            (r, batch)
        })
        .collect()
}

/// Client `c`'s script: all updates, or an update every fourth op and reads
/// between. Amounts come from the seed.
fn client_script(w: &Workload, seed: u64, c: usize, reads: bool) -> Vec<ClientOp> {
    (0..w.per_round)
        .map(|j| {
            if reads && !j.is_multiple_of(4) {
                ClientOp::Read
            } else {
                ClientOp::Update(Op::Add(1 + mix(seed ^ ((c as u64) << 16) ^ j) % 9))
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Stream systems (GWTS, GSbS)
// ---------------------------------------------------------------------------

/// The two streaming algorithms behind one face, so one driver serves both
/// (and both runtimes).
pub trait Stream: Process<Self::Msg> + Sized + 'static {
    type Msg: WireMessage + Wire + Rounded + 'static;
    /// Layer prefix of this algorithm's per-layer metrics.
    const LAYER: &'static str;
    /// Message kinds, as `WireMessage::kind` names them.
    const KINDS: &'static [&'static str];

    fn build(
        me: ProcessId,
        cfg: SystemConfig,
        schedule: BTreeMap<u64, Vec<u64>>,
        rounds: u64,
    ) -> Self;
    fn inputs(&self) -> &[u64];
    fn decisions(&self) -> &[ValueSet<u64>];
    /// Wasted proposals so far, where the process counts them itself.
    fn refinements(&self) -> Option<u64>;
    fn observer(honest: Vec<ProcessId>) -> Observer<Self::Msg>;
    fn node_observer(me: ProcessId) -> NodeObserver<Self::Msg>;
    /// The `slot`-th Byzantine stand-in, playing process `me`.
    fn adversary(slot: usize, me: ProcessId, w: &Workload) -> Box<dyn Process<Self::Msg>>;
    fn to_snapshot(&self) -> Vec<u8>;
    fn restores(bytes: &[u8]) -> bool;
}

impl Stream for GwtsProcess<u64> {
    type Msg = GwtsMsg<u64>;
    const LAYER: &'static str = "core.gwts";
    const KINDS: &'static [&'static str] = &[
        "disc_init",
        "disc_echo",
        "disc_ready",
        "ack_req",
        "ack_init",
        "ack_echo",
        "ack_ready",
        "nack",
    ];

    fn build(me: ProcessId, cfg: SystemConfig, s: BTreeMap<u64, Vec<u64>>, rounds: u64) -> Self {
        GwtsProcess::new(me, cfg, s, rounds)
    }
    fn inputs(&self) -> &[u64] {
        &self.all_inputs
    }
    fn decisions(&self) -> &[ValueSet<u64>] {
        &self.decisions
    }
    fn refinements(&self) -> Option<u64> {
        Some(self.refinements.values().sum())
    }
    fn observer(honest: Vec<ProcessId>) -> Observer<Self::Msg> {
        gwts_observer(honest, |v| *v)
    }
    fn node_observer(me: ProcessId) -> NodeObserver<Self::Msg> {
        gwts_node_observer(me, |v| *v)
    }
    fn adversary(slot: usize, me: ProcessId, w: &Workload) -> Box<dyn Process<Self::Msg>> {
        if !slot.is_multiple_of(2) {
            return Box::new(adversary::gwts::RoundJumper::<u64>::new(w.rounds));
        }
        // Two batches no honest process proposes; rbcast lets one through
        // at most.
        let foreign =
            |k: u64| -> ValueSet<u64> { [u64::MAX - 2 * me as u64 - k].into_iter().collect() };
        Box::new(adversary::gwts::BatchEquivocator {
            a: foreign(0),
            b: foreign(1),
        })
    }
    fn to_snapshot(&self) -> Vec<u8> {
        self.snapshot_bytes()
    }
    fn restores(bytes: &[u8]) -> bool {
        GwtsProcess::<u64>::from_snapshot(bytes).is_ok()
    }
}

impl Stream for GsbsProcess<u64> {
    type Msg = GsbsMsg<u64>;
    const LAYER: &'static str = "core.gsbs";
    const KINDS: &'static [&'static str] = &[
        "init", "safe_req", "safe_ack", "ack_req", "ack", "nack", "decided", "resync",
    ];

    fn build(me: ProcessId, cfg: SystemConfig, s: BTreeMap<u64, Vec<u64>>, rounds: u64) -> Self {
        GsbsProcess::new(me, cfg, s, rounds)
    }
    fn inputs(&self) -> &[u64] {
        &self.all_inputs
    }
    fn decisions(&self) -> &[ValueSet<u64>] {
        &self.decisions
    }
    fn refinements(&self) -> Option<u64> {
        None
    }
    fn observer(honest: Vec<ProcessId>) -> Observer<Self::Msg> {
        gsbs_observer(honest, |v| *v)
    }
    fn node_observer(me: ProcessId) -> NodeObserver<Self::Msg> {
        gsbs_node_observer(me, |v| *v)
    }
    fn adversary(_slot: usize, me: ProcessId, _w: &Workload) -> Box<dyn Process<Self::Msg>> {
        // The one GSbS adversary the library ships: forged proofs, bogus
        // proof references, delta gaps.
        Box::new(adversary::gsbs::BogusRefSender::new(
            me,
            u64::MAX - me as u64,
        ))
    }
    fn to_snapshot(&self) -> Vec<u8> {
        self.snapshot_bytes()
    }
    fn restores(bytes: &[u8]) -> bool {
        GsbsProcess::<u64>::from_snapshot(bytes).is_ok()
    }
}

impl<V: Value> Rounded for GwtsMsg<V> {
    fn round_of(&self) -> Option<u64> {
        match self {
            // Disclosures are tagged with their round.
            GwtsMsg::Disc(
                RbMsg::Init { tag, .. } | RbMsg::Echo { tag, .. } | RbMsg::Ready { tag, .. },
            ) => Some(*tag),
            GwtsMsg::Ack(
                RbMsg::Init { value, .. } | RbMsg::Echo { value, .. } | RbMsg::Ready { value, .. },
            ) => Some(value.round),
            GwtsMsg::AckReq { round, .. } | GwtsMsg::Nack { round, .. } => Some(*round),
        }
    }
}

impl Rounded for GsbsMsg<u64> {
    fn round_of(&self) -> Option<u64> {
        Some(match self {
            GsbsMsg::Init(sb) => sb.round,
            GsbsMsg::SafeAck(a) => a.round,
            GsbsMsg::Ack(a) => a.round,
            GsbsMsg::Decided(c) => c.round,
            GsbsMsg::SafeReq { round, .. }
            | GsbsMsg::AckReq { round, .. }
            | GsbsMsg::Nack { round, .. }
            | GsbsMsg::Resync { round, .. } => *round,
        })
    }
}

impl Rounded for RsmMsg {
    fn round_of(&self) -> Option<u64> {
        match self {
            RsmMsg::Gwts(g) => g.round_of(),
            _ => None,
        }
    }
}

/// Ops of a stream proposer: one per input value, complete when the
/// proposer's own latest decision contains it.
pub struct StreamProbe;

impl<S: Stream> Probe<S> for StreamProbe {
    fn counts(&self, p: &S) -> (usize, usize) {
        (p.inputs().len(), p.decisions().len())
    }
    fn submitted_keys(&self, p: &S, from: usize, out: &mut Vec<u64>) {
        out.extend_from_slice(p.inputs().get(from..).unwrap_or_default());
    }
    fn is_done(&self, p: &S, key: u64) -> bool {
        // Decisions grow, so the latest one decides membership.
        p.decisions().last().is_some_and(|d| d.contains(&key))
    }
}

/// Deliveries no healthy trial comes near; a run that reaches it is cut off
/// and its unfinished ops count as failed.
const SIM_BUDGET: u64 = 200_000_000;

fn honest_ids(w: &Workload, mode: Mode) -> Vec<ProcessId> {
    let honest = if mode == Mode::Byz { w.n - w.f } else { w.n };
    (0..honest).collect()
}

/// Final decisions of the honest processes form a ⊆-chain, and every
/// completed op's value is in its proposer's final decision.
fn stream_final_check(
    finals: &[(ProcessId, Option<ValueSet<u64>>)],
    ops: &[DoneOp],
) -> Result<(), String> {
    let mut chain: Vec<&ValueSet<u64>> = finals.iter().filter_map(|(_, d)| d.as_ref()).collect();
    chain.sort_by_key(|d| d.len());
    if let Some(w) = chain.windows(2).find(|w| match w {
        [a, b] => !a.is_subset(b),
        _ => false,
    }) {
        return Err(format!(
            "final decisions are not a chain ({} vs {} values)",
            w.first().map_or(0, |d| d.len()),
            w.last().map_or(0, |d| d.len())
        ));
    }
    for op in ops {
        let holds = finals
            .iter()
            .find(|(p, _)| *p == op.node)
            .and_then(|(_, d)| d.as_ref())
            .is_some_and(|d| d.contains(&op.rec.key));
        if !holds {
            return Err(format!(
                "value {:#x} completed at process {} but is not in its final decision",
                op.rec.key, op.node
            ));
        }
    }
    Ok(())
}

/// The recorded history passes the prefix checker and its witness
/// re-executes. Returns `(ops checked, check time)`.
fn check_history(trace: &Trace, cfg: &CheckerConfig) -> Result<(usize, Duration), String> {
    let t0 = Instant::now();
    let witness = check_trace(trace, cfg).map_err(|v| format!("check_trace: {v}"))?;
    witness.validate().map_err(|e| format!("witness: {e}"))?;
    Ok((witness.ops_checked, t0.elapsed()))
}

fn record_check(trial: &mut Trial, checked: Result<(usize, Duration), String>) {
    match checked {
        Ok((ops, took)) => {
            trial
                .layer
                .insert("core.linearize.ops_checked".into(), ops as f64);
            trial
                .layer
                .insert("core.linearize.check_ms".into(), took.as_secs_f64() * 1e3);
        }
        Err(why) => trial.verdict = Some(Err(why)),
    }
}

fn sim_stream_trial<S: Stream>(w: &Workload, seed: u64, mode: Mode) -> Trial {
    let mut trial = Trial::default();
    let cfg = SystemConfig::new(w.n, w.f);
    let honest = honest_ids(w, mode);
    trial.attempted = w.ops_per_trial(honest.len());

    let t_setup = Instant::now();
    let sink: Sink<S::Msg> = Sink::default();
    let epoch = Instant::now();
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
    for i in 0..w.n {
        b = if !honest.contains(&i) {
            b.add(S::adversary(i - honest.len(), i, w))
        } else {
            let p = S::build(i, cfg, stream_schedule(w, seed, i), w.rounds);
            if mode == Mode::Bare {
                b.add(Box::new(p))
            } else {
                let traced = mode.traced();
                b.add(Box::new(Observed::new(
                    i,
                    p,
                    StreamProbe,
                    epoch,
                    traced,
                    &sink,
                )))
            }
        };
    }
    let mut sim: Simulation<S::Msg> = b.build();
    trial.setup = t_setup.elapsed();
    if mode == Mode::SetupOnly {
        return trial;
    }

    let meter = Meter::start();
    let out = if matches!(mode, Mode::Check | Mode::Byz) {
        run_traced(&mut sim, SIM_BUDGET, &mut S::observer(honest.clone()))
    } else {
        sim.run(SIM_BUDGET)
    };
    meter.stop(&mut trial);
    trial.metrics = Some(sim.metrics().clone());

    let mut end = EndState::default();
    for &i in &honest {
        if let Some(p) = sim.process_as::<S>(i) {
            end.visit(i, p, mode, &mut trial.layer);
        }
    }
    let checked = matches!(mode, Mode::Check | Mode::Byz).then(|| {
        let cc = if mode == Mode::Byz {
            let byz: Vec<ProcessId> = (honest.len()..w.n).collect();
            CheckerConfig::with_byzantine(w.n, w.f, &byz)
        } else {
            CheckerConfig::honest_system(w.n, w.f)
        };
        let cc = if out.quiescent {
            cc
        } else {
            cc.without_inclusivity()
        };
        sim.trace().map_or_else(
            || Err("no trace recorded".into()),
            |t| check_history(t, &cc),
        )
    });

    let corpus = trial.absorb(collect(sim, &sink));
    end.finish(w, &mut trial);
    if let Some(checked) = checked {
        record_check(&mut trial, checked);
    }
    if mode.kernels() {
        kernels::codec(&corpus, &mut trial.layer);
    }
    trial
}

/// What is read off the honest processes when a stream run is over: their
/// final decisions (for the cheap check), refinements, and — on the first
/// one, when the mode asks for kernels — the set-algebra and snapshot
/// kernels at the run's final sizes.
#[derive(Default)]
struct EndState {
    finals: Vec<(ProcessId, Option<ValueSet<u64>>)>,
    /// Refinements the processes counted themselves, if all of them do.
    counted: Option<u64>,
    /// Rounds decided, summed: one first proposal each.
    decided: u64,
}

impl EndState {
    fn visit<S: Stream>(&mut self, i: ProcessId, p: &S, mode: Mode, layer: &mut kernels::Layer) {
        if self.finals.is_empty() {
            self.counted = Some(0);
            if mode.kernels() {
                if let Some(last) = p.decisions().last() {
                    kernels::valueset(last, layer);
                }
                let short = S::LAYER.trim_start_matches("core.");
                kernels::recovery(short, || p.to_snapshot(), S::restores, layer);
            }
        }
        self.counted = self.counted.zip(p.refinements()).map(|(a, b)| a + b);
        self.decided += p.decisions().len() as u64;
        self.finals.push((i, p.decisions().last().cloned()));
    }

    /// Sets the trial's verdict from the cheap check and records refinements.
    fn finish(self, w: &Workload, trial: &mut Trial) {
        let refinements = self.counted.or_else(|| {
            // Not counted by the process: every proposal, first or refined,
            // sends one ack_req to each of the n acceptors, and a process
            // makes one first proposal per round it decides.
            let sent = trial.metrics.as_ref()?.sent_by_kind.get("ack_req")?;
            Some((sent / w.n as u64).saturating_sub(self.decided))
        });
        if let Some(r) = refinements {
            trial.layer.insert("refinements".into(), r as f64);
        }
        trial.verdict = Some(stream_final_check(&self.finals, &trial.ops));
    }
}

fn tcp_stream_trial<S: Stream>(w: &Workload, seed: u64, mode: Mode, chaos: bool) -> Trial {
    let mut trial = Trial::default();
    let cfg = SystemConfig::new(w.n, w.f);
    let honest = honest_ids(w, mode);
    trial.attempted = w.ops_per_trial(honest.len());

    let t_setup = Instant::now();
    let sink: Sink<S::Msg> = Sink::default();
    let epoch = Instant::now();
    let faults = if chaos {
        FaultPlan::new(seed, FaultConfig::chaos())
    } else {
        FaultPlan::none()
    };
    // The transport as shipped: nothing but the fault plan, the seed and
    // the safety deadline is set.
    let net = NetConfig {
        faults,
        seed,
        deadline_ms: if chaos { 60_000 } else { 30_000 },
        ..NetConfig::default()
    };
    let mut b = TcpRuntimeBuilder::new(net);
    for i in 0..w.n {
        let p = S::build(i, cfg, stream_schedule(w, seed, i), w.rounds);
        let traced = mode.traced();
        let p = Box::new(Observed::new(i, p, StreamProbe, epoch, traced, &sink));
        b = if mode == Mode::Check {
            b.add_observed(p, S::node_observer(i))
        } else {
            b.add(p)
        };
    }
    let mut rt = match b.build() {
        Ok(rt) => rt,
        Err(e) => {
            trial.verdict = Some(Err(format!("bind loopback: {e}")));
            return trial;
        }
    };
    trial.setup = t_setup.elapsed();
    if mode == Mode::SetupOnly {
        return trial;
    }

    let (_, ctxt0) = task_stats();
    let meter = Meter::start();
    let out = rt.run_transport(u64::MAX);
    meter.stop(&mut trial);
    let (threads, ctxt1) = task_stats();
    trial.metrics = Some(rt.metrics_snapshot());
    trial.layer.insert("net.threads".into(), threads as f64);
    trial
        .layer
        .insert("ctx_switches".into(), ctxt1.saturating_sub(ctxt0) as f64);

    let mut end = EndState::default();
    for &i in &honest {
        rt.with_process(i, &mut |p| {
            if let Some(p) = p.as_any().downcast_ref::<S>() {
                end.visit(i, p, mode, &mut trial.layer);
            }
        });
    }

    let t_down = Instant::now();
    rt.shutdown();
    trial.layer.insert(
        "net.shutdown_ms".into(),
        t_down.elapsed().as_secs_f64() * 1e3,
    );
    let checked = (mode == Mode::Check).then(|| {
        let cc = CheckerConfig::honest_system(w.n, w.f);
        let cc = if out.quiescent {
            cc
        } else {
            cc.without_inclusivity()
        };
        check_history(&rt.take_trace(op_priority), &cc)
    });

    let corpus = trial.absorb(collect(rt, &sink));
    end.finish(w, &mut trial);
    if !out.quiescent {
        trial.notes.push(format!(
            "seed {seed}: hit the {} ms deadline",
            net.deadline_ms
        ));
    }
    if let Some(checked) = checked {
        record_check(&mut trial, checked);
    }
    if mode.kernels() {
        kernels::codec(&corpus, &mut trial.layer);
    }
    trial
}

// ---------------------------------------------------------------------------
// RSM
// ---------------------------------------------------------------------------

/// Ops of an RSM client: one per script step, keyed by its index; step `k`
/// is submitted when `k` results are in, and done when result `k` is.
pub struct ClientProbe {
    script_len: usize,
}

impl ClientProbe {
    pub fn new(script_len: usize) -> Self {
        ClientProbe { script_len }
    }
}

impl Probe<WorkloadClient> for ClientProbe {
    fn counts(&self, c: &WorkloadClient) -> (usize, usize) {
        let done = c.results.len();
        ((done + 1).min(self.script_len), done)
    }
    fn submitted_keys(&self, c: &WorkloadClient, from: usize, out: &mut Vec<u64>) {
        out.extend((from..self.counts(c).0).map(|k| k as u64));
    }
    fn is_done(&self, c: &WorkloadClient, key: u64) -> bool {
        (key as usize) < c.results.len()
    }
}

/// Replicas submit nothing themselves; the probe only watches how much
/// ack history they retain.
pub struct ReplicaProbe;

impl Probe<Replica> for ReplicaProbe {
    fn counts(&self, _r: &Replica) -> (usize, usize) {
        (0, 0)
    }
    fn submitted_keys(&self, _r: &Replica, _from: usize, _out: &mut Vec<u64>) {}
    fn is_done(&self, _r: &Replica, _key: u64) -> bool {
        false
    }
    fn gauge(&self, r: &Replica) -> u64 {
        r.inner.ack_history_len() as u64
    }
}

/// In the read workload, every fourth op of a client is an update.
pub fn rsm_op_is_read(reads: bool, key: u64) -> bool {
    reads && !key.is_multiple_of(4)
}

fn rsm_trial(w: &Workload, seed: u64, mode: Mode, reads: bool) -> Trial {
    let mut trial = Trial::default();
    let cfg = SystemConfig::new(w.n, w.f);
    let clients = w.rounds as usize;
    trial.attempted = w.ops_per_trial(w.n);

    let t_setup = Instant::now();
    let sink: Sink<RsmMsg> = Sink::default();
    let epoch = Instant::now();
    let traced = mode.traced();
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
    for i in 0..w.n {
        let r = Replica::new(i, cfg, RSM_ROUND_CAP);
        b = b.add(Box::new(Observed::new(
            i,
            r,
            ReplicaProbe,
            epoch,
            traced,
            &sink,
        )));
    }
    for c in 0..clients {
        let script = client_script(w, seed, c, reads);
        let probe = ClientProbe::new(script.len());
        let client = WorkloadClient::new(c as u64 + 1, w.n, w.f, script);
        let id = w.n + c;
        b = b.add(Box::new(Observed::new(
            id, client, probe, epoch, traced, &sink,
        )));
    }
    let mut sim: Simulation<RsmMsg> = b.build();
    trial.setup = t_setup.elapsed();
    if mode == Mode::SetupOnly {
        return trial;
    }

    let all_finished = |sim: &Simulation<RsmMsg>| {
        (w.n..w.n + clients).all(|id| {
            sim.process_as::<WorkloadClient>(id)
                .is_some_and(WorkloadClient::finished)
        })
    };
    let meter = Meter::start();
    sim.start();
    // Stop at all-finished, quiescence (the round cap), or the budget. The
    // finished test walks the clients, so it runs once per 64 deliveries.
    'run: loop {
        for _ in 0..64 {
            if !sim.step() {
                break 'run;
            }
        }
        if all_finished(&sim) || sim.metrics().delivered >= SIM_BUDGET {
            break;
        }
    }
    meter.stop(&mut trial);
    trial.metrics = Some(sim.metrics().clone());

    let handles: Vec<&WorkloadClient> = (w.n..w.n + clients)
        .filter_map(|id| sim.process_as::<WorkloadClient>(id))
        .collect();
    let stuck: Vec<u64> = handles
        .iter()
        .filter(|c| !c.finished())
        .map(|c| c.client_id)
        .collect();
    let rounds = (0..w.n)
        .filter_map(|i| sim.process_as::<Replica>(i))
        .map(|r| r.inner.round)
        .max()
        .unwrap_or(0);
    trial.layer.insert("rsm.rounds".into(), rounds as f64);
    trial
        .layer
        .insert("rsm.stuck_clients".into(), stuck.len() as f64);
    if !stuck.is_empty() {
        trial.notes.push(format!(
            "seed {seed}: clients {stuck:?} never finished (replicas reached round {rounds})"
        ));
    }
    // Liveness is accounted as failed ops; the verdict is about safety.
    // Timed trials run the per-client checks, the check trial the battery.
    let verdict = if mode == Mode::Check {
        checks::check_read_consistency(&handles)
            .and_then(|()| checks::check_update_stability(&handles))
    } else {
        Ok(())
    }
    .and_then(|()| checks::check_read_monotonicity(&handles))
    .and_then(|()| checks::check_update_visibility(&handles))
    .and_then(|()| {
        if stuck.is_empty() {
            checks::check_liveness(&handles)
        } else {
            Ok(())
        }
    });
    trial.verdict = Some(verdict.map_err(|v| format!("rsm checks: {v}")));
    if mode.kernels() {
        if let Some(read) = handles.iter().filter_map(|c| c.reads().pop()).next_back() {
            kernels::state_execute(&read, &mut trial.layer);
        }
        if let Some(last) = sim
            .process_as::<Replica>(0)
            .and_then(|r| r.inner.decisions.last())
        {
            kernels::valueset(last, &mut trial.layer);
        }
    }
    drop(handles);
    trial.absorb(collect(sim, &sink));
    trial
}
