//! Property-based testing of WTS: proptest drives system size, scheduler
//! family, seed and adversary selection; the full LA specification must
//! hold in every sampled run.

use bgla_core::adversary::{
    AckForger, ChaosMonkey, Equivocator, LateDiscloser, NackSpammer, Silent,
};
use bgla_core::harness::{assert_la_spec, wts_report, wts_system_with_adversaries};
use bgla_core::wts::WtsMsg;
use bgla_simnet::{
    DelayScheduler, FifoScheduler, LifoScheduler, Process, RandomScheduler, Scheduler,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy)]
enum SchedulerKind {
    Fifo,
    Lifo,
    Random,
    Skewed,
}

#[derive(Debug, Clone, Copy)]
enum AdversaryKind {
    None,
    Silent,
    Equivocator,
    NackSpammer,
    AckForger,
    LateDiscloser,
    Chaos,
}

fn make_scheduler(kind: SchedulerKind, seed: u64) -> Box<dyn Scheduler> {
    match kind {
        SchedulerKind::Fifo => Box::new(FifoScheduler::new()),
        SchedulerKind::Lifo => Box::new(LifoScheduler::new()),
        SchedulerKind::Random => Box::new(RandomScheduler::new(seed)),
        SchedulerKind::Skewed => Box::new(DelayScheduler::new(seed, 32)),
    }
}

fn make_adversary(kind: AdversaryKind, seed: u64) -> Option<Box<dyn Process<WtsMsg<u64>>>> {
    match kind {
        AdversaryKind::None => None,
        AdversaryKind::Silent => Some(Box::new(Silent::default())),
        AdversaryKind::Equivocator => Some(Box::new(Equivocator {
            a: 70_001u64,
            b: 70_002u64,
        })),
        AdversaryKind::NackSpammer => Some(Box::new(NackSpammer::new(70_003u64))),
        AdversaryKind::AckForger => Some(Box::new(AckForger::default())),
        AdversaryKind::LateDiscloser => Some(Box::new(LateDiscloser::new(70_004u64, 9))),
        AdversaryKind::Chaos => Some(Box::new(ChaosMonkey::new(seed))),
    }
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerKind> {
    prop_oneof![
        Just(SchedulerKind::Fifo),
        Just(SchedulerKind::Lifo),
        Just(SchedulerKind::Random),
        Just(SchedulerKind::Skewed),
    ]
}

fn arb_adversary() -> impl Strategy<Value = AdversaryKind> {
    prop_oneof![
        Just(AdversaryKind::None),
        Just(AdversaryKind::Silent),
        Just(AdversaryKind::Equivocator),
        Just(AdversaryKind::NackSpammer),
        Just(AdversaryKind::AckForger),
        Just(AdversaryKind::LateDiscloser),
        Just(AdversaryKind::Chaos),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// The whole spec battery, across (f, scheduler, adversary, seed).
    #[test]
    fn la_spec_holds_everywhere(
        f in 1usize..=2,
        sched in arb_scheduler(),
        adv in arb_adversary(),
        seed in 0u64..1_000_000,
    ) {
        let n = 3 * f + 1;
        let (mut sim, config, byz) = wts_system_with_adversaries(
            n,
            f,
            |i| i as u64,
            make_scheduler(sched, seed),
            |i, _| {
                if i == n - 1 {
                    make_adversary(adv, seed)
                } else {
                    None
                }
            },
        );
        let out = sim.run(30_000_000);
        prop_assert!(out.quiescent, "non-quiescent run");
        let correct: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
        let report = wts_report(&sim, &correct);
        let inputs: BTreeSet<u64> = correct.iter().map(|&i| i as u64).collect();
        // assert_la_spec checks liveness, comparability, inclusivity and
        // non-triviality and panics with the violation otherwise.
        assert_la_spec(&report, &inputs, config.f);
        // Lemma 3 on top.
        prop_assert!(report.max_refinements <= config.f as u64);
    }

    /// Theorem 3's bound on lockstep runs, for random f, honest or with
    /// `f` late disclosers.
    #[test]
    fn lockstep_delay_bound(f in 1usize..=5, late in any::<bool>()) {
        let n = 3 * f + 1;
        let (mut sim, _, byz) = wts_system_with_adversaries(
            n,
            f,
            |i| i as u64,
            Box::new(FifoScheduler::new()),
            |i, _| {
                (late && i >= n - f)
                    .then(|| Box::new(LateDiscloser::new(1_000 + i as u64, 12)) as _)
            },
        );
        sim.run(u64::MAX / 2);
        let correct: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
        let report = wts_report(&sim, &correct);
        prop_assert!(report.decided.iter().all(|&d| d), "a correct process never decided");
        let bound = 2 * f as u64 + 5;
        for d in &report.depths {
            prop_assert!(*d <= bound, "depth {d} > bound {bound}");
        }
    }
}

/// Lemma 3, at its bound: with `f` late disclosers a correct proposer
/// starts from the `n − f` timely values and learns each straggler's
/// value only through a nack, so random schedules drive it to exactly `f`
/// refinements and never past them.
#[test]
fn late_disclosers_drive_refinements_to_f_and_no_further() {
    for f in 1usize..=4 {
        let n = 3 * f + 1;
        let mut worst = 0;
        for seed in 0..10u64 {
            let (mut sim, _, byz) = wts_system_with_adversaries(
                n,
                f,
                |i| i as u64,
                Box::new(RandomScheduler::new(seed)),
                |i, _| {
                    (i >= n - f).then(|| Box::new(LateDiscloser::new(1_000 + i as u64, 10)) as _)
                },
            );
            sim.run(u64::MAX / 2);
            let correct: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
            let refinements = wts_report(&sim, &correct).max_refinements;
            assert!(
                refinements <= f as u64,
                "f={f} seed {seed}: {refinements} refinements > f"
            );
            worst = worst.max(refinements);
        }
        assert_eq!(worst, f as u64, "f={f}: no seed reached the bound");
    }
}

/// Lemma 1, exercised directly: once a value is committed (acked by a
/// Byzantine quorum), every later-committed proposal contains it. We
/// check it on real runs by collecting every decision (decisions are
/// committed proposals) and verifying the containment order matches
/// commitment order along any schedule.
#[test]
fn committed_values_persist_lemma_1() {
    for seed in 0..20u64 {
        let n = 7;
        let f = 2;
        let (mut sim, _, _) = wts_system_with_adversaries(
            n,
            f,
            |i| i as u64,
            Box::new(RandomScheduler::new(seed)),
            |_, _| None,
        );
        sim.run(u64::MAX / 2);
        let correct: Vec<usize> = (0..n).collect();
        let report = wts_report(&sim, &correct);
        // All decisions pairwise comparable ⇒ they can be ordered by
        // inclusion; the smallest decision's values appear in all others
        // — the observable consequence of Lemma 1.
        let mut sorted = report.decisions.clone();
        sorted.sort_by_key(|d| d.len());
        for w in sorted.windows(2) {
            assert!(
                w[0].is_subset(&w[1]),
                "seed {seed}: an earlier-committed set vanished from a later one"
            );
        }
    }
}
