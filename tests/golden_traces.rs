//! Golden traces: pinned seeds of all four algorithms, reduced to two
//! digests per run and compared byte for byte with the checked-in
//! `tests/golden/traces.txt`. A protocol or engine edit that moves any
//! delivery, byte count, depth or decision of these runs fails here.
//!
//! One fixture line per run: `<label> <deliveries> shape=<hex> full=<hex>`
//! (digests are `bgla_codec::fnv1a64`). `shape` covers each delivery's
//! `(step, from, to, kind, depth)`; `full` covers the same plus `bytes`,
//! then `Metrics` (`total_sent`, `total_bytes`, `bytes_by_kind`), every
//! process's final causal depth, and every honest process's decisions,
//! decision depths and refinement counts.
//!
//! There is no bless switch: a mismatch prints the rendered grid, and
//! moving the fixture is a deliberate edit of the text file.

use bgla::codec::fnv1a64;
use bgla::core::adversary::{gsbs as gsbs_adv, sbs as sbs_adv};
use bgla::core::gsbs::{GsbsMsg, GsbsProcess};
use bgla::core::gwts::{GwtsMsg, GwtsProcess};
use bgla::core::provendelta::ProvenUpdate;
use bgla::core::sbs::{SbsMsg, SbsProcess};
use bgla::core::wts::{WtsMsg, WtsProcess};
use bgla::core::{SystemConfig, ValueSet};
use bgla::simnet::{
    Context, DelayScheduler, FifoScheduler, LifoScheduler, PartitionScheduler, Process, ProcessId,
    RandomScheduler, Scheduler, Simulation, SimulationBuilder, TargetedScheduler, TraceEvent,
    WireMessage,
};
use std::any::Any;
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("golden/traces.txt");

/// What one honest process ends a run with.
#[derive(Clone)]
struct Outcome {
    decisions: Vec<Vec<u64>>,
    decision_depths: Vec<u64>,
    refinements: Vec<u64>,
}

/// Everything of a finished run that the fixture pins.
#[derive(Clone)]
struct Recorded {
    deliveries: Vec<TraceEvent>,
    total_sent: u64,
    total_bytes: u64,
    bytes_by_kind: Vec<(&'static str, u64)>,
    depths: Vec<u64>,
    honest: Vec<Outcome>,
}

fn put(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn put_all(buf: &mut Vec<u8>, xs: &[u64]) {
    put(buf, xs.len() as u64);
    for x in xs {
        put(buf, *x);
    }
}

impl Recorded {
    fn of<M: WireMessage + 'static>(sim: &Simulation<M>, honest: Vec<Outcome>) -> Self {
        let m = sim.metrics();
        Recorded {
            deliveries: sim.trace().expect("tracing enabled").events().to_vec(),
            total_sent: m.total_sent(),
            total_bytes: m.total_bytes(),
            bytes_by_kind: m.bytes_by_kind.iter().map(|(k, v)| (*k, *v)).collect(),
            depths: (0..sim.n()).map(|p| sim.depth_of(p)).collect(),
            honest,
        }
    }

    /// The deliveries, serialised with or without their byte counts.
    fn deliveries(&self, with_bytes: bool) -> Vec<u8> {
        let mut buf = Vec::new();
        for d in &self.deliveries {
            put(&mut buf, d.step);
            put(&mut buf, d.from as u64);
            put(&mut buf, d.to as u64);
            put_str(&mut buf, d.kind);
            put(&mut buf, d.depth);
            if with_bytes {
                put(&mut buf, d.bytes as u64);
            }
        }
        buf
    }

    fn shape(&self) -> u64 {
        fnv1a64(&self.deliveries(false))
    }

    fn full(&self) -> u64 {
        let mut buf = self.deliveries(true);
        put(&mut buf, self.total_sent);
        put(&mut buf, self.total_bytes);
        put(&mut buf, self.bytes_by_kind.len() as u64);
        for (kind, bytes) in &self.bytes_by_kind {
            put_str(&mut buf, kind);
            put(&mut buf, *bytes);
        }
        put_all(&mut buf, &self.depths);
        put(&mut buf, self.honest.len() as u64);
        for o in &self.honest {
            put(&mut buf, o.decisions.len() as u64);
            for d in &o.decisions {
                put_all(&mut buf, d);
            }
            put_all(&mut buf, &o.decision_depths);
            put_all(&mut buf, &o.refinements);
        }
        fnv1a64(&buf)
    }

    fn line(&self, label: &str) -> String {
        format!(
            "{label} {} shape={:016x} full={:016x}\n",
            self.deliveries.len(),
            self.shape(),
            self.full()
        )
    }
}

fn values(set: &ValueSet<u64>) -> Vec<u64> {
    set.iter().copied().collect()
}

fn one_shot(
    decision: &Option<ValueSet<u64>>,
    decision_depth: Option<u64>,
    refinements: u64,
) -> Outcome {
    Outcome {
        decisions: decision.iter().map(values).collect(),
        decision_depths: decision_depth.into_iter().collect(),
        refinements: vec![refinements],
    }
}

/// The fixture lines whose label starts with `prefix`, in file order.
fn fixture_grid(prefix: &str) -> String {
    FIXTURE
        .lines()
        .filter(|l| l.starts_with(prefix))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn assert_grid(prefix: &str, rendered: &str) {
    assert!(
        rendered == fixture_grid(prefix),
        "`{prefix}*` drifted from tests/golden/traces.txt; rendered now:\n{rendered}"
    );
}

/// The eight scheduler configurations of the engine grid.
fn schedulers(seed: u64) -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("fifo", Box::new(FifoScheduler::new())),
        ("lifo", Box::new(LifoScheduler::new())),
        ("random", Box::new(RandomScheduler::new(seed))),
        ("delay", Box::new(DelayScheduler::new(seed, 32))),
        (
            "targeted/fifo",
            Box::new(
                TargetedScheduler::new(vec![(0, 1), (1, 0)], Box::new(FifoScheduler::new()))
                    .with_release_after(40),
            ),
        ),
        (
            "targeted/random",
            Box::new(
                TargetedScheduler::new(vec![(2, 0), (0, 2)], Box::new(RandomScheduler::new(seed)))
                    .with_release_after(25),
            ),
        ),
        (
            "partition/fifo",
            Box::new(PartitionScheduler::new(
                vec![0, 1],
                60,
                Box::new(FifoScheduler::new()),
            )),
        ),
        (
            "partition/random",
            Box::new(PartitionScheduler::new(
                vec![0, 2],
                35,
                Box::new(RandomScheduler::new(seed)),
            )),
        ),
    ]
}

fn run_traced<M: WireMessage + 'static>(
    label: &str,
    procs: Vec<Box<dyn Process<M>>>,
    scheduler: Box<dyn Scheduler>,
    budget: u64,
) -> Simulation<M> {
    let mut sim = SimulationBuilder::new()
        .scheduler(scheduler)
        .add_all(procs)
        .build();
    sim.enable_trace();
    let out = sim.run(budget);
    assert!(out.quiescent, "{label}: did not quiesce");
    sim
}

fn wts_cell(label: &str, scheduler: Box<dyn Scheduler>) -> Recorded {
    let (n, f) = (7, 2);
    let config = SystemConfig::new(n, f);
    let procs = (0..n)
        .map(|i| Box::new(WtsProcess::new(i, config, i as u64)) as Box<dyn Process<WtsMsg<u64>>>)
        .collect();
    let sim = run_traced(label, procs, scheduler, 200_000);
    let honest = (0..n)
        .map(|i| {
            let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
            one_shot(&p.decision, p.decision_depth, p.refinements)
        })
        .collect();
    Recorded::of(&sim, honest)
}

fn gwts_cell(label: &str, scheduler: Box<dyn Scheduler>) -> Recorded {
    let (n, f, rounds) = (4, 1, 4u64);
    let config = SystemConfig::new(n, f);
    let procs = (0..n)
        .map(|i| {
            let schedule: BTreeMap<u64, Vec<u64>> = (0..rounds - 2)
                .map(|r| (r, vec![(i as u64) * 1_000_000 + r * 1_000]))
                .collect();
            Box::new(GwtsProcess::new(i, config, schedule, rounds))
                as Box<dyn Process<GwtsMsg<u64>>>
        })
        .collect();
    let sim = run_traced(label, procs, scheduler, 200_000);
    let honest = (0..n)
        .map(|i| {
            let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
            Outcome {
                decisions: p.decisions.iter().map(values).collect(),
                decision_depths: p.decision_depths.clone(),
                refinements: p.refinements.iter().flat_map(|(r, c)| [*r, *c]).collect(),
            }
        })
        .collect();
    Recorded::of(&sim, honest)
}

#[test]
fn wts_engine_cells_match_the_fixture() {
    let mut rendered = String::new();
    for seed in 0..5u64 {
        for (name, scheduler) in schedulers(seed) {
            let label = format!("wts/{name}/seed{seed}");
            rendered += &wts_cell(&label, scheduler).line(&label);
        }
    }
    assert_grid("wts/", &rendered);
}

#[test]
fn gwts_engine_cells_match_the_fixture() {
    let mut rendered = String::new();
    for seed in 0..3u64 {
        for (name, scheduler) in schedulers(seed) {
            let label = format!("gwts/{name}/seed{seed}");
            rendered += &gwts_cell(&label, scheduler).line(&label);
        }
    }
    assert_grid("gwts/", &rendered);
}

/// The SbS adversaries of the ablation grid (always process 3).
fn sbs_adversary(name: &str) -> Option<Box<dyn Process<SbsMsg<u64>>>> {
    match name {
        "honest" => None,
        "forger" => Some(Box::new(sbs_adv::ProofForger {
            me: 3,
            value: 999_999u64,
        })),
        "conflict" => Some(Box::new(sbs_adv::ConflictSigner {
            me: 3,
            a: 666u64,
            b: 777u64,
        })),
        "bogus-ref" => Some(Box::new(sbs_adv::BogusRefSender::new(3, 31_337u64))),
        other => panic!("unknown adversary {other}"),
    }
}

fn sbs_cell(label: &str, adversary: &str, seed: u64) -> Recorded {
    let (n, f) = (4, 1);
    let config = SystemConfig::new(n, f);
    let adversary = sbs_adversary(adversary);
    let correct = if adversary.is_some() { n - 1 } else { n };
    let mut procs: Vec<Box<dyn Process<SbsMsg<u64>>>> = (0..correct)
        .map(|i| Box::new(SbsProcess::new(i, config, 10 + i as u64)) as _)
        .collect();
    procs.extend(adversary);
    let sim = run_traced(
        label,
        procs,
        Box::new(RandomScheduler::new(seed)),
        10_000_000,
    );
    let honest = (0..correct)
        .map(|i| {
            let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
            one_shot(&p.decision, p.decision_depth, p.refinements)
        })
        .collect();
    Recorded::of(&sim, honest)
}

/// GSbS n=4 f=1 rounds=3: `inputs` rounds of one value per process,
/// optionally with a `BogusRefSender` in place of process 3.
fn gsbs_cell(label: &str, inputs: u64, bogus_ref: bool, seed: u64) -> Recorded {
    let (n, f, rounds) = (4, 1, 3u64);
    let config = SystemConfig::new(n, f);
    let correct = if bogus_ref { n - 1 } else { n };
    let mut procs: Vec<Box<dyn Process<GsbsMsg<u64>>>> = (0..correct)
        .map(|i| {
            let schedule: BTreeMap<u64, Vec<u64>> = (0..inputs)
                .map(|r| (r, vec![100 * (r + 1) + i as u64]))
                .collect();
            Box::new(GsbsProcess::new(i, config, schedule, rounds)) as _
        })
        .collect();
    if bogus_ref {
        procs.push(Box::new(gsbs_adv::BogusRefSender::new(3, 31_337u64)));
    }
    let sim = run_traced(
        label,
        procs,
        Box::new(RandomScheduler::new(seed)),
        50_000_000,
    );
    let honest = (0..correct)
        .map(|i| {
            let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
            Outcome {
                decisions: p.decisions.iter().map(values).collect(),
                decision_depths: p.decision_depths.clone(),
                refinements: Vec::new(),
            }
        })
        .collect();
    Recorded::of(&sim, honest)
}

#[test]
fn sbs_ablation_cells_match_the_fixture() {
    let mut rendered = String::new();
    for (adversary, seeds) in [
        ("honest", 6),
        ("forger", 4),
        ("conflict", 4),
        ("bogus-ref", 4),
    ] {
        for seed in 0..seeds {
            let label = format!("sbs/{adversary}/seed{seed}");
            rendered += &sbs_cell(&label, adversary, seed).line(&label);
        }
    }
    assert_grid("sbs/", &rendered);
}

#[test]
fn gsbs_ablation_cells_match_the_fixture() {
    let mut rendered = String::new();
    for (name, inputs, bogus_ref) in [
        ("honest-1", 1, false),
        ("honest-2", 2, false),
        ("bogus-ref", 2, true),
    ] {
        for seed in 0..3u64 {
            let label = format!("gsbs/{name}/seed{seed}");
            rendered += &gsbs_cell(&label, inputs, bogus_ref, seed).line(&label);
        }
    }
    assert_grid("gsbs/", &rendered);
}

/// The fixture cannot pass vacuously: moving one depth, one kind, one
/// byte count or one decided value of a recorded run moves the digests
/// that cover it.
#[test]
fn digests_are_sensitive_to_each_pinned_quantity() {
    let base = wts_cell("sensitivity", Box::new(FifoScheduler::new()));
    let (shape, full) = (base.shape(), base.full());
    let mid = base.deliveries.len() / 2;

    let mut depth = base.clone();
    depth.deliveries[mid].depth += 1;
    assert_ne!(depth.shape(), shape, "depth must move shape");
    assert_ne!(depth.full(), full, "depth must move full");

    let mut kind = base.clone();
    kind.deliveries[mid].kind = "perturbed";
    assert_ne!(kind.shape(), shape, "kind must move shape");
    assert_ne!(kind.full(), full, "kind must move full");

    let mut bytes = base.clone();
    bytes.deliveries[mid].bytes += 1;
    assert_eq!(bytes.shape(), shape, "shape excludes bytes");
    assert_ne!(bytes.full(), full, "bytes must move full");

    let mut decision = base.clone();
    decision.honest[0].decisions[0][0] += 1;
    assert_eq!(decision.shape(), shape, "shape excludes decisions");
    assert_ne!(decision.full(), full, "a decided value must move full");
}

/// Forwards to an honest SbS process and counts the proof-carrying
/// payloads that reach it delta-encoded.
struct DeltaSpy {
    inner: SbsProcess<u64>,
    deltas_seen: u64,
}

impl Process<SbsMsg<u64>> for DeltaSpy {
    fn on_start(&mut self, ctx: &mut Context<SbsMsg<u64>>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, from: ProcessId, msg: SbsMsg<u64>, ctx: &mut Context<SbsMsg<u64>>) {
        if let SbsMsg::AckReq {
            proposed: ProvenUpdate::Delta { .. },
            ..
        }
        | SbsMsg::Nack {
            accepted: ProvenUpdate::Delta { .. },
            ..
        } = &msg
        {
            self.deltas_seen += 1;
        }
        self.inner.on_message(from, msg, ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Independent of the fixture: `ProvenUpdate::Full` is the first-contact
/// and resync fallback, not the steady state — in honest runs some
/// `ack_req`/`nack` really travels as a delta.
#[test]
fn proven_deltas_engage_on_honest_sbs_runs() {
    let (n, f) = (4, 1);
    let config = SystemConfig::new(n, f);
    let mut deltas_seen = 0;
    for seed in 0..6 {
        let procs = (0..n)
            .map(|i| {
                Box::new(DeltaSpy {
                    inner: SbsProcess::new(i, config, 10 + i as u64),
                    deltas_seen: 0,
                }) as Box<dyn Process<SbsMsg<u64>>>
            })
            .collect();
        let sim = run_traced(
            "deltas-engage",
            procs,
            Box::new(RandomScheduler::new(seed)),
            10_000_000,
        );
        for i in 0..n {
            let spy = sim.process_as::<DeltaSpy>(i).unwrap();
            assert!(spy.inner.decision.is_some(), "seed {seed} p{i} undecided");
            deltas_seen += spy.deltas_seen;
        }
    }
    assert!(deltas_seen > 0, "no ack_req/nack travelled as a delta");
}
