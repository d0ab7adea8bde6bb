//! The paper's cost claims, as tests: how messages and bytes grow with
//! `n` for the one-shot algorithms (Sections 5.1.3 and 8.1), what the
//! generalized signature algorithm saves per decision (Section 8.2), and
//! how proofs of safety travel. Every run is all-correct and, but for one
//! refining SbS run, lockstep (FIFO).
//!
//! The delay and refinement bounds are tested beside each algorithm
//! (`wts.rs`, `sbs.rs`, `wts_properties.rs`, `sbs_properties.rs`) and
//! Theorem 1 in `necessity.rs`.

use bgla::codec::Wire;
use bgla::core::gsbs::{GsbsMsg, GsbsProcess};
use bgla::core::gwts::GwtsProcess;
use bgla::core::harness::{gsbs_system, gwts_system, sbs_system, wts_system};
use bgla::core::sbs::{SbsMsg, SbsProcess};
use bgla::core::wts::WtsProcess;
use bgla::core::{ProvenRecord, ProvenUpdate, SystemConfig};
use bgla::simnet::{
    Context, FifoScheduler, Metrics, Process, ProcessId, RandomScheduler, Scheduler, Simulation,
    SimulationBuilder, WireMessage,
};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// System sizes of the `f = 1` ladders.
const F1_LADDER: [usize; 6] = [4, 7, 10, 13, 16, 19];

/// Fits `y = c·x^k` through the first and last points and returns `k`.
fn growth_exponent(xs: &[usize], ys: &[u64]) -> f64 {
    let (x0, y0) = (xs[0] as f64, ys[0] as f64);
    let (x1, y1) = (xs[xs.len() - 1] as f64, ys[ys.len() - 1] as f64);
    (y1 / y0).ln() / (x1 / x0).ln()
}

/// Metrics of an all-correct lockstep WTS run, once every process decided.
fn wts_run(n: usize, f: usize) -> Metrics {
    let (mut sim, _) = wts_system(n, f, |i| i as u64, Box::new(FifoScheduler::new()));
    sim.run(u64::MAX / 2);
    for i in 0..n {
        let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
        assert!(p.decision.is_some(), "WTS n={n} f={f}: p{i} never decided");
    }
    sim.metrics().clone()
}

/// Metrics of an all-correct SbS run, once every process decided.
fn sbs_run(n: usize, f: usize, scheduler: Box<dyn Scheduler>) -> Metrics {
    let (mut sim, _) = sbs_system(n, f, |i| i as u64, scheduler);
    sim.run(u64::MAX / 2);
    for i in 0..n {
        let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
        assert!(p.decision.is_some(), "SbS n={n} f={f}: p{i} never decided");
    }
    sim.metrics().clone()
}

/// `(WTS, SbS)` lockstep metrics at `f = 1` for each `n` of [`F1_LADDER`].
fn f1_ladder() -> Vec<(Metrics, Metrics)> {
    F1_LADDER
        .iter()
        .map(|&n| (wts_run(n, 1), sbs_run(n, 1, Box::new(FifoScheduler::new()))))
        .collect()
}

/// One input per process, in round 0.
fn one_input(i: usize) -> BTreeMap<u64, Vec<u64>> {
    BTreeMap::from([(0, vec![i as u64])])
}

/// The finished all-correct lockstep GSbS stream of `rounds` rounds.
fn gsbs_run(n: usize, f: usize, rounds: u64) -> Simulation<GsbsMsg<u64>> {
    let (mut sim, _) = gsbs_system(n, f, rounds, one_input, Box::new(FifoScheduler::new()));
    sim.run(u64::MAX / 2);
    sim
}

/// At `f = 1` WTS's reliable broadcast costs each process `O(n²)`
/// messages and SbS's signatures `O(n)` (Section 8.1).
#[test]
fn sbs_sends_linearly_many_messages_per_process_and_wts_quadratically() {
    let ladder = f1_ladder();
    let wts: Vec<u64> = ladder
        .iter()
        .map(|(w, _)| w.max_sent_per_process())
        .collect();
    let sbs: Vec<u64> = ladder
        .iter()
        .map(|(_, s)| s.max_sent_per_process())
        .collect();
    let kw = growth_exponent(&F1_LADDER, &wts);
    let ks = growth_exponent(&F1_LADDER, &sbs);
    assert!(kw > 1.6, "WTS should be ~quadratic, got {kw:.2}: {wts:?}");
    assert!(ks < 1.4, "SbS should be ~linear, got {ks:.2}: {sbs:?}");
}

/// At the largest `f` each `n` tolerates, WTS still costs each process
/// `O(n²)` messages (Section 5.1.3): the reliable broadcast dominates.
#[test]
fn wts_sends_quadratically_many_messages_per_process_at_max_f() {
    let ns = [4, 7, 10, 16, 22, 31, 43];
    let per_process: Vec<u64> = ns
        .iter()
        .map(|&n| wts_run(n, SystemConfig::max_f(n)).max_sent_per_process())
        .collect();
    let k = growth_exponent(&ns, &per_process);
    assert!(
        (1.6..=2.4).contains(&k),
        "per-process message growth {k:.2} is not quadratic-shaped: {per_process:?}"
    );
}

/// Section 8's trade, per `n`: SbS sends fewer messages than WTS, but
/// they carry signatures and proofs of safety, so it ships more bytes in
/// total and its largest message is larger than anything WTS sends.
#[test]
fn sbs_sends_fewer_but_larger_messages_than_wts() {
    for (n, (wts, sbs)) in F1_LADDER.into_iter().zip(f1_ladder()) {
        assert!(
            sbs.total_sent() < wts.total_sent(),
            "n={n}: SbS sends {} messages, WTS {}",
            sbs.total_sent(),
            wts.total_sent()
        );
        assert!(
            sbs.total_bytes() > wts.total_bytes(),
            "n={n}: SbS ships {} bytes, WTS {}",
            sbs.total_bytes(),
            wts.total_bytes()
        );
        assert!(
            sbs.max_message_bytes > wts.max_message_bytes,
            "n={n}: SbS's largest message is {} bytes, WTS's {}",
            sbs.max_message_bytes,
            wts.max_message_bytes
        );
    }
}

/// What one proof-carrying payload shows: whether it is an `ack_req`
/// that encodes shorter than its records with a copy of its proof each
/// (a reference counted at its 16 bytes), and whether it is a delta
/// naming a proof by id.
fn interned_and_by_reference<T: ProvenRecord>(
    update: &ProvenUpdate<T>,
    ack_req: bool,
) -> [bool; 2] {
    let table = update.table();
    let flat: usize = table
        .records()
        .map(|(signed, proof)| signed.wire_size() + proof.map_or(16, Wire::wire_size))
        .sum();
    [
        ack_req && update.wire_size() < flat,
        update.is_delta() && !table.refs().is_empty(),
    ]
}

/// Forwards to `inner`, counting the delivered `ack_req`s that said a
/// proof once for several records and the deltas that named one by id.
struct Spy<M> {
    inner: Box<dyn Process<M>>,
    /// A message's two facts (see [`interned_and_by_reference`]).
    look: fn(&M) -> [bool; 2],
    seen: Arc<[AtomicUsize; 2]>,
}

impl<M: WireMessage> Process<M> for Spy<M> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M>) {
        for (seen, fact) in self.seen.iter().zip((self.look)(&msg)) {
            seen.fetch_add(usize::from(fact), Ordering::Relaxed);
        }
        self.inner.on_message(from, msg, ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Runs `procs`, each behind a [`Spy`], until quiescent, and checks that
/// both counts are positive.
fn check_proof_shipping<M: WireMessage + 'static>(
    label: &str,
    procs: impl Iterator<Item = Box<dyn Process<M>>>,
    look: fn(&M) -> [bool; 2],
    scheduler: Box<dyn Scheduler>,
) {
    let seen = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for inner in procs {
        let seen = Arc::clone(&seen);
        b = b.add(Box::new(Spy { inner, look, seen }));
    }
    assert!(b.build().run(u64::MAX / 2).quiescent);
    let [interned, by_ref] = [0, 1].map(|i| seen[i].load(Ordering::Relaxed));
    assert!(interned > 0, "{label}: no ack_req said a proof once");
    assert!(by_ref > 0, "{label}: no delta named a proof by reference");
}

/// At `n = 7` a one-shot SbS run that refines and a GSbS stream both ship
/// proofs interned per message and, after first contact, by reference —
/// as their encodings count them.
#[test]
fn proofs_travel_interned_and_then_by_reference() {
    let config = SystemConfig::new(7, 2);
    let sbs = (0..7).map(|i| Box::new(SbsProcess::new(i, config, i as u64)) as _);
    let look = |m: &SbsMsg<u64>| match m {
        SbsMsg::AckReq { proposed, .. } => interned_and_by_reference(proposed, true),
        SbsMsg::Nack { accepted, .. } => interned_and_by_reference(accepted, false),
        _ => [false; 2],
    };
    check_proof_shipping("SbS n=7", sbs, look, Box::new(RandomScheduler::new(3)));
    let gsbs = (0..7).map(|i| Box::new(GsbsProcess::new(i, config, one_input(i), 4)) as _);
    let look = |m: &GsbsMsg<u64>| match m {
        GsbsMsg::AckReq { proposed, .. } => interned_and_by_reference(proposed, true),
        GsbsMsg::Nack { accepted, .. } => interned_and_by_reference(accepted, false),
        _ => [false; 2],
    };
    check_proof_shipping("GSbS n=7", gsbs, look, Box::new(FifoScheduler::new()));
}

/// Replacing GWTS's reliably broadcast acks with GSbS's signed acks and
/// decided certificates cuts the messages each decision costs
/// (Section 8.2).
#[test]
fn gsbs_sends_fewer_messages_per_decision_than_gwts() {
    let rounds = 3;
    for n in [4, 7] {
        let (mut gwts, _) = gwts_system(n, 1, rounds, one_input, Box::new(FifoScheduler::new()));
        gwts.run(u64::MAX / 2);
        let gwts_decisions: usize = (0..n)
            .map(|i| {
                gwts.process_as::<GwtsProcess<u64>>(i)
                    .unwrap()
                    .decisions
                    .len()
            })
            .sum();
        let gsbs = gsbs_run(n, 1, rounds);
        let gsbs_decisions: usize = (0..n)
            .map(|i| {
                gsbs.process_as::<GsbsProcess<u64>>(i)
                    .unwrap()
                    .decisions
                    .len()
            })
            .sum();
        assert_eq!(gwts_decisions, n * rounds as usize, "GWTS n={n}");
        assert_eq!(gsbs_decisions, n * rounds as usize, "GSbS n={n}");
        let gwts_cost = gwts.metrics().total_sent() as f64 / gwts_decisions as f64;
        let gsbs_cost = gsbs.metrics().total_sent() as f64 / gsbs_decisions as f64;
        assert!(
            gsbs_cost < gwts_cost,
            "n={n}: GSbS sends {gsbs_cost:.0} messages per decision, GWTS {gwts_cost:.0}"
        );
    }
}
