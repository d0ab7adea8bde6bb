//! Trace-level conformance sweep: every algorithm × scheduler × seed
//! combination records a full operation history (propose/refine/decide
//! ops interleaved with deliveries) and must pass the prefix checker —
//! the LA/GLA safety battery at every prefix plus a linearization
//! witness against the sequential join object. A deliberately broken
//! toy protocol shows the other half of the pipeline: the schedule
//! search finds its schedule-dependent violation and shrinks it to a
//! minimal, replayable counterexample.

use bgla::core::adversary::{self, Equivocator, Silent};
use bgla::core::gsbs::GsbsProcess;
use bgla::core::gwts::GwtsProcess;
use bgla::core::harness::{
    gsbs_observer, gsbs_system, gwts_observer, gwts_system, sbs_observer, sbs_system, wts_observer,
    wts_system, wts_system_with_adversaries,
};
use bgla::core::linearize::{CheckerConfig, TraceViolation};
use bgla::core::sbs::SbsProcess;
use bgla::core::search::{
    replay_schedule, run_conformance, search_schedules, Observer, SystemFactory,
};
use bgla::core::{SystemConfig, ValueSet};
use bgla::simnet::{
    Context, FifoScheduler, OpEvent, Process, RandomScheduler, Scheduler, SearchScheduler,
    SimulationBuilder, TargetedScheduler, WireMessage,
};
use std::any::Any;
use std::collections::BTreeMap;

const BUDGET: u64 = 5_000_000;

/// The scheduler grid every scenario sweeps (beyond the search seeds).
fn scheduler_grid(seeds: u64) -> Vec<(String, Box<dyn Scheduler>)> {
    let mut grid: Vec<(String, Box<dyn Scheduler>)> =
        vec![("fifo".into(), Box::new(FifoScheduler::new()))];
    for s in 0..seeds {
        grid.push((format!("random({s})"), Box::new(RandomScheduler::new(s))));
        grid.push((
            format!("targeted({s})"),
            Box::new(
                TargetedScheduler::new(
                    vec![(0, 1), (1, 0)],
                    Box::new(RandomScheduler::new(1000 + s)),
                )
                .with_release_after(60),
            ),
        ));
        grid.push((format!("search({s})"), Box::new(SearchScheduler::new(s))));
    }
    grid
}

/// Runs one scenario over the full grid, asserting quiescence and a
/// validated linearization witness for every cell.
fn sweep<M: WireMessage + 'static>(
    label: &str,
    build: &mut SystemFactory<'_, M>,
    mk_observer: &dyn Fn() -> Observer<M>,
    cfg: &CheckerConfig,
    seeds: u64,
) {
    for (name, scheduler) in scheduler_grid(seeds) {
        let run = run_conformance(build, mk_observer, cfg, scheduler, BUDGET);
        assert!(run.outcome.quiescent, "{label}/{name}: did not quiesce");
        match run.result {
            Ok(witness) => witness
                .validate()
                .unwrap_or_else(|e| panic!("{label}/{name}: bad witness: {e}")),
            Err(v) => panic!("{label}/{name}: conformance violation: {v}"),
        }
    }
}

fn ident(v: &u64) -> u64 {
    *v
}

// ---------------------------------------------------------------------------
// WTS
// ---------------------------------------------------------------------------

#[test]
fn wts_conformance_honest_and_adversarial() {
    let (n, f) = (4usize, 1usize);

    let mut honest_build = |sched: Box<dyn Scheduler>| wts_system(n, f, |i| 10 + i as u64, sched).0;
    let honest: Vec<usize> = (0..n).collect();
    sweep(
        "wts/honest",
        &mut honest_build,
        &|| wts_observer(honest.clone(), ident),
        &CheckerConfig::honest_system(n, f),
        3,
    );

    for (adv_name, mk_adv) in [
        (
            "equivocator",
            Box::new(|| {
                Box::new(Equivocator {
                    a: 91_001u64,
                    b: 91_002u64,
                }) as Box<dyn Process<_>>
            }) as Box<dyn Fn() -> Box<dyn Process<_>>>,
        ),
        (
            "silent",
            Box::new(|| Box::new(Silent::default()) as Box<dyn Process<_>>),
        ),
    ] {
        let mut build = |sched: Box<dyn Scheduler>| {
            wts_system_with_adversaries(
                n,
                f,
                |i| 10 + i as u64,
                sched,
                |i, _| (i == n - 1).then(&mk_adv),
            )
            .0
        };
        let honest: Vec<usize> = (0..n - 1).collect();
        sweep(
            &format!("wts/{adv_name}"),
            &mut build,
            &|| wts_observer(honest.clone(), ident),
            &CheckerConfig::with_byzantine(n, f, &[3]),
            2,
        );
    }
}

// ---------------------------------------------------------------------------
// GWTS
// ---------------------------------------------------------------------------

fn gwts_schedule(i: usize) -> BTreeMap<u64, Vec<u64>> {
    // Inputs only in round 0 of 3: two drain rounds keep inclusivity
    // meaningful at the finite horizon (the real protocol never stops).
    let mut schedule = BTreeMap::new();
    schedule.insert(0, vec![100 + i as u64, 200 + i as u64]);
    schedule
}

#[test]
fn gwts_conformance_honest_and_adversarial() {
    let (n, f, rounds) = (4usize, 1usize, 3u64);
    let config = SystemConfig::new(n, f);

    let mut honest_build =
        |sched: Box<dyn Scheduler>| gwts_system(n, f, rounds, gwts_schedule, sched).0;
    let honest: Vec<usize> = (0..n).collect();
    sweep(
        "gwts/honest",
        &mut honest_build,
        &|| gwts_observer(honest.clone(), ident),
        &CheckerConfig::honest_system(n, f),
        2,
    );

    // Batch equivocation: the disclosure rbcast lets at most one of the
    // two batches through, so at most one foreign value can be decided.
    let mut build = |sched: Box<dyn Scheduler>| {
        let mut b = SimulationBuilder::new().scheduler(sched);
        for i in 0..n - 1 {
            b = b.add(Box::new(GwtsProcess::new(
                i,
                config,
                gwts_schedule(i),
                rounds,
            )));
        }
        b = b.add(Box::new(adversary::gwts::BatchEquivocator {
            a: [91_001u64].into_iter().collect::<ValueSet<u64>>(),
            b: [91_002u64].into_iter().collect::<ValueSet<u64>>(),
        }));
        b.build()
    };
    let honest: Vec<usize> = (0..n - 1).collect();
    sweep(
        "gwts/batch-equivocator",
        &mut build,
        &|| gwts_observer(honest.clone(), ident),
        &CheckerConfig::with_byzantine(n, f, &[3]),
        2,
    );

    // Round clogging: fake far-future rounds bounce off Safe_r.
    let mut build = |sched: Box<dyn Scheduler>| {
        let mut b = SimulationBuilder::new().scheduler(sched);
        for i in 0..n - 1 {
            b = b.add(Box::new(GwtsProcess::new(
                i,
                config,
                gwts_schedule(i),
                rounds,
            )));
        }
        b = b.add(Box::new(adversary::gwts::RoundJumper::<u64>::new(12)));
        b.build()
    };
    sweep(
        "gwts/round-jumper",
        &mut build,
        &|| gwts_observer(honest.clone(), ident),
        &CheckerConfig::with_byzantine(n, f, &[3]),
        2,
    );

    // A broken ack stream: gaps, overlapping and unsafe additions, one tag
    // shown two ways. It wastes the breaker's votes and nothing else.
    sweep(
        "gwts/ack-stream-breaker",
        &mut gwts_with_stream_breaker,
        &|| gwts_observer(honest.clone(), ident),
        &CheckerConfig::with_byzantine(n, f, &[3]),
        2,
    );
}

/// Three correct GWTS processes and an [`adversary::gwts::AckStreamBreaker`].
fn gwts_with_stream_breaker(
    sched: Box<dyn Scheduler>,
) -> bgla::simnet::Simulation<bgla::core::gwts::GwtsMsg<u64>> {
    let config = SystemConfig::new(4, 1);
    let mut b = SimulationBuilder::new().scheduler(sched);
    for i in 0..3 {
        b = b.add(Box::new(GwtsProcess::new(i, config, gwts_schedule(i), 3)));
    }
    b.add(Box::new(adversary::gwts::AckStreamBreaker::new(91_003u64)))
        .build()
}

// ---------------------------------------------------------------------------
// SbS
// ---------------------------------------------------------------------------

#[test]
fn sbs_conformance_honest_and_adversarial() {
    let (n, f) = (4usize, 1usize);
    let config = SystemConfig::new(n, f);

    let mut honest_build = |sched: Box<dyn Scheduler>| sbs_system(n, f, |i| 10 + i as u64, sched).0;
    let honest: Vec<usize> = (0..n).collect();
    sweep(
        "sbs/honest",
        &mut honest_build,
        &|| sbs_observer(honest.clone(), ident),
        &CheckerConfig::honest_system(n, f),
        2,
    );

    for (adv_name, mk_adv) in [
        (
            "conflict-signer",
            Box::new(|| {
                Box::new(adversary::sbs::ConflictSigner {
                    me: 3,
                    a: 90_001u64,
                    b: 90_002u64,
                }) as Box<dyn Process<_>>
            }) as Box<dyn Fn() -> Box<dyn Process<_>>>,
        ),
        (
            "proof-forger",
            Box::new(|| {
                Box::new(adversary::sbs::ProofForger {
                    me: 3,
                    value: 66_666u64,
                }) as Box<dyn Process<_>>
            }),
        ),
        (
            "bogus-ref-sender",
            Box::new(|| {
                Box::new(adversary::sbs::BogusRefSender::new(3, 31_337u64)) as Box<dyn Process<_>>
            }),
        ),
        (
            "sig-forger",
            Box::new(|| {
                Box::new(adversary::sbs::SigForger {
                    me: 3,
                    value: 66_667u64,
                }) as Box<dyn Process<_>>
            }),
        ),
        (
            "wrong-echo",
            Box::new(|| Box::new(adversary::sbs::WrongEcho { me: 3 }) as Box<dyn Process<_>>),
        ),
    ] {
        let mut build = |sched: Box<dyn Scheduler>| {
            let mut b = SimulationBuilder::new().scheduler(sched);
            for i in 0..n - 1 {
                b = b.add(Box::new(SbsProcess::new(i, config, 10 + i as u64)));
            }
            b = b.add(mk_adv());
            b.build()
        };
        let honest: Vec<usize> = (0..n - 1).collect();
        sweep(
            &format!("sbs/{adv_name}"),
            &mut build,
            &|| sbs_observer(honest.clone(), ident),
            &CheckerConfig::with_byzantine(n, f, &[3]),
            1,
        );
    }
}

// ---------------------------------------------------------------------------
// GSbS
// ---------------------------------------------------------------------------

fn gsbs_schedule(i: usize) -> BTreeMap<u64, Vec<u64>> {
    let mut schedule = BTreeMap::new();
    schedule.insert(0, vec![100 + i as u64]);
    schedule
}

#[test]
fn gsbs_conformance_honest_and_adversarial() {
    let (n, f, rounds) = (4usize, 1usize, 3u64);
    let config = SystemConfig::new(n, f);

    let mut honest_build =
        |sched: Box<dyn Scheduler>| gsbs_system(n, f, rounds, gsbs_schedule, sched).0;
    let honest: Vec<usize> = (0..n).collect();
    sweep(
        "gsbs/honest",
        &mut honest_build,
        &|| gsbs_observer(honest.clone(), ident),
        &CheckerConfig::honest_system(n, f),
        1,
    );

    for (adv_name, mk_adv) in [
        (
            "bogus-ref-sender",
            Box::new(|| {
                Box::new(adversary::gsbs::BogusRefSender::new(3, 31_337u64)) as Box<dyn Process<_>>
            }) as Box<dyn Fn() -> Box<dyn Process<_>>>,
        ),
        (
            "sig-forger",
            Box::new(|| {
                Box::new(adversary::gsbs::SigForger::new(3, 66_667u64)) as Box<dyn Process<_>>
            }),
        ),
        (
            "wrong-echo",
            Box::new(|| Box::new(adversary::gsbs::WrongEcho { me: 3 }) as Box<dyn Process<_>>),
        ),
    ] {
        let mut build = |sched: Box<dyn Scheduler>| {
            let mut b = SimulationBuilder::new().scheduler(sched);
            for i in 0..n - 1 {
                b = b.add(Box::new(GsbsProcess::new(
                    i,
                    config,
                    gsbs_schedule(i),
                    rounds,
                )));
            }
            b = b.add(mk_adv());
            b.build()
        };
        let honest: Vec<usize> = (0..n - 1).collect();
        sweep(
            &format!("gsbs/{adv_name}"),
            &mut build,
            &|| gsbs_observer(honest.clone(), ident),
            &CheckerConfig::with_byzantine(n, f, &[3]),
            1,
        );
    }
}

// ---------------------------------------------------------------------------
// Schedule search over the real algorithms: zero violations expected
// ---------------------------------------------------------------------------

#[test]
fn schedule_search_is_clean_on_wts_and_gwts() {
    let (n, f) = (4usize, 1usize);
    let honest: Vec<usize> = (0..n).collect();

    let mut build = |sched: Box<dyn Scheduler>| wts_system(n, f, |i| 10 + i as u64, sched).0;
    let report = search_schedules(
        &mut build,
        &|| wts_observer(honest.clone(), ident),
        &CheckerConfig::honest_system(n, f),
        0..6,
        BUDGET,
    );
    assert_eq!(report.seeds_run, 6);
    assert!(report.ops_checked > 0 && report.deliveries > 0);
    if let Some(cex) = &report.counterexample {
        panic!("wts schedule search found a violation:\n{cex}");
    }

    let rounds = 3u64;
    let mut build = |sched: Box<dyn Scheduler>| gwts_system(n, f, rounds, gwts_schedule, sched).0;
    let report = search_schedules(
        &mut build,
        &|| gwts_observer(honest.clone(), ident),
        &CheckerConfig::honest_system(n, f),
        0..4,
        BUDGET,
    );
    assert_eq!(report.seeds_run, 4);
    if let Some(cex) = &report.counterexample {
        panic!("gwts schedule search found a violation:\n{cex}");
    }

    let honest: Vec<usize> = (0..n - 1).collect();
    let report = search_schedules(
        &mut gwts_with_stream_breaker,
        &|| gwts_observer(honest.clone(), ident),
        &CheckerConfig::with_byzantine(n, f, &[3]),
        0..4,
        BUDGET,
    );
    assert_eq!(report.seeds_run, 4);
    if let Some(cex) = &report.counterexample {
        panic!("gwts schedule search against a broken ack stream found a violation:\n{cex}");
    }
}

#[test]
fn schedule_search_is_clean_on_sbs_and_gsbs() {
    let (n, f) = (4usize, 1usize);
    let honest: Vec<usize> = (0..n).collect();

    let mut build = |sched: Box<dyn Scheduler>| sbs_system(n, f, |i| 10 + i as u64, sched).0;
    let report = search_schedules(
        &mut build,
        &|| sbs_observer(honest.clone(), ident),
        &CheckerConfig::honest_system(n, f),
        0..3,
        BUDGET,
    );
    assert_eq!(report.seeds_run, 3);
    if let Some(cex) = &report.counterexample {
        panic!("sbs schedule search found a violation:\n{cex}");
    }

    let rounds = 3u64;
    let mut build = |sched: Box<dyn Scheduler>| gsbs_system(n, f, rounds, gsbs_schedule, sched).0;
    let report = search_schedules(
        &mut build,
        &|| gsbs_observer(honest.clone(), ident),
        &CheckerConfig::honest_system(n, f),
        0..2,
        BUDGET,
    );
    assert_eq!(report.seeds_run, 2);
    if let Some(cex) = &report.counterexample {
        panic!("gsbs schedule search found a violation:\n{cex}");
    }
}

// ---------------------------------------------------------------------------
// The broken toy protocol: caught, shrunk, replayable
// ---------------------------------------------------------------------------

/// A deliberately broken "agreement": each process broadcasts its value
/// and decides the first two distinct values it receives. Under FIFO
/// everyone sees the same prefix and the decisions coincide; under
/// reordering different processes decide incomparable pairs. Exists
/// only to prove the search half of the pipeline catches what the
/// final-artifact checkers cannot see coming.
struct FirstTwo {
    value: u64,
    seen: Vec<u64>,
    decision: Option<Vec<u64>>,
}

impl FirstTwo {
    fn new(value: u64) -> Self {
        FirstTwo {
            value,
            seen: Vec::new(),
            decision: None,
        }
    }
}

impl Process<u64> for FirstTwo {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        ctx.broadcast(self.value);
    }
    fn on_message(&mut self, _from: usize, msg: u64, _ctx: &mut Context<u64>) {
        if self.decision.is_some() {
            return;
        }
        if !self.seen.contains(&msg) {
            self.seen.push(msg);
        }
        if self.seen.len() == 2 {
            let mut d = self.seen.clone();
            d.sort_unstable();
            self.decision = Some(d);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn toy_observer(n: usize) -> Observer<u64> {
    let mut proposed = vec![false; n];
    let mut decided = vec![false; n];
    Box::new(move |sim, out| {
        let step = sim.metrics().delivered;
        for i in 0..n {
            let p = sim.process_as::<FirstTwo>(i).expect("toy process");
            if !proposed[i] {
                proposed[i] = true;
                out.push(OpEvent {
                    step,
                    process: i,
                    kind: bgla::core::linearize::OP_PROPOSE,
                    ts: 0,
                    values: vec![p.value],
                });
            }
            if let Some(d) = &p.decision {
                if !decided[i] {
                    decided[i] = true;
                    out.push(OpEvent {
                        step,
                        process: i,
                        kind: bgla::core::linearize::OP_DECIDE,
                        ts: 0,
                        values: d.clone(),
                    });
                }
            }
        }
    })
}

#[test]
fn broken_toy_protocol_is_caught_shrunk_and_replayable() {
    let n = 3usize;
    let mut build = |sched: Box<dyn Scheduler>| {
        let mut b = SimulationBuilder::new().scheduler(sched);
        for i in 0..n {
            b = b.add(Box::new(FirstTwo::new(1 + i as u64)));
        }
        b.build()
    };
    // The toy never includes every proposer's own value; only its
    // schedule-dependent comparability break is under test.
    let cfg = CheckerConfig::honest_system(n, 0).without_inclusivity();

    // Benign schedule: looks perfectly fine.
    let fifo = run_conformance(
        &mut build,
        &|| toy_observer(n),
        &cfg,
        Box::new(FifoScheduler::new()),
        BUDGET,
    );
    fifo.result
        .expect("the toy protocol is safe under FIFO")
        .validate()
        .unwrap();

    // The search must expose it.
    let report = search_schedules(&mut build, &|| toy_observer(n), &cfg, 0..64, BUDGET);
    let cex = report
        .counterexample
        .expect("schedule search must break the toy protocol");
    assert!(
        matches!(
            cex.violation.violation,
            TraceViolation::IncomparableDecisions { .. }
        ),
        "unexpected violation class: {}",
        cex.violation
    );

    // The shrunk schedule is genuinely minimal: two incomparable
    // first-two decisions need only 4 deliveries (two distinct values
    // at each of two processes), and the toy run has 9 sends total —
    // so a bound of 4 fails if the shrinker ever regresses to handing
    // back the recorded schedule.
    assert!(
        cex.schedule.len() <= 4,
        "shrunk schedule is not minimal: {} entries",
        cex.schedule.len()
    );
    let replay = replay_schedule(&mut build, &|| toy_observer(n), &cfg, &cex.schedule, BUDGET);
    assert!(
        replay.result.is_err(),
        "shrunk counterexample schedule no longer violates"
    );

    // The seed alone reproduces the original violating run.
    let reseed = run_conformance(
        &mut build,
        &|| toy_observer(n),
        &cfg,
        Box::new(SearchScheduler::new(cex.seed)),
        BUDGET,
    );
    assert!(reseed.result.is_err(), "seed did not reproduce");

    // And the report prints as a copy-pasteable repro.
    let rendered = format!("{cex}");
    assert!(rendered.contains("SearchScheduler::new"));
    assert!(rendered.contains("ReplayScheduler::new"));
}
