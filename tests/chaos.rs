//! Randomized-adversary safety tests: the Byzantine LA specification
//! quantifies over *arbitrary* adversary behavior, so beyond the
//! targeted attacks we sample behaviors — seeded chaos processes that
//! replay, mutate and fabricate protocol traffic — across many schedules
//! and check that every safety property survives.

use bgla::core::adversary::gwts::{
    AckStreamBreaker, BatchEquivocator, NameForger, RoundJumper, SilentG,
};
use bgla::core::adversary::ChaosMonkey;
use bgla::core::gwts::GwtsProcess;
use bgla::core::harness::{wts_report, wts_system_with_adversaries};
use bgla::core::ValueSet;
use bgla::core::{spec, SystemConfig};
use bgla::simnet::{RandomScheduler, SimulationBuilder};
use std::collections::BTreeMap;

#[test]
fn wts_safety_survives_chaos_monkeys() {
    for seed in 0..25u64 {
        let (n, f) = (4usize, 1usize);
        let (mut sim, config, byz) = wts_system_with_adversaries(
            n,
            f,
            |i| i as u64,
            Box::new(RandomScheduler::new(seed)),
            |i, _| (i == 3).then(|| Box::new(ChaosMonkey::new(seed * 31 + 7)) as _),
        );
        let out = sim.run(2_000_000);
        assert!(out.quiescent, "seed {seed}: chaos prevented quiescence");
        let correct: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
        let report = wts_report(&sim, &correct);
        // Liveness holds too: chaos can't fake the quorum away.
        spec::check_liveness(&report.decided).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_comparability(&report.decisions).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_inclusivity(&report.pairs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let inputs: std::collections::BTreeSet<u64> = correct.iter().map(|&i| i as u64).collect();
        spec::check_nontriviality(&inputs, &report.decisions, config.f)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn wts_safety_survives_two_chaos_monkeys_at_f2() {
    for seed in 0..10u64 {
        let (n, f) = (7usize, 2usize);
        let (mut sim, config, byz) = wts_system_with_adversaries(
            n,
            f,
            |i| i as u64,
            Box::new(RandomScheduler::new(seed)),
            |i, _| match i {
                5 => Some(Box::new(ChaosMonkey::new(seed * 13 + 1)) as _),
                6 => Some(Box::new(ChaosMonkey::new(seed * 17 + 3)) as _),
                _ => None,
            },
        );
        let out = sim.run(20_000_000);
        assert!(out.quiescent, "seed {seed}");
        let correct: Vec<usize> = (0..n).filter(|i| !byz.contains(i)).collect();
        let report = wts_report(&sim, &correct);
        spec::check_liveness(&report.decided).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_comparability(&report.decisions).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let inputs: std::collections::BTreeSet<u64> = correct.iter().map(|&i| i as u64).collect();
        spec::check_nontriviality(&inputs, &report.decisions, config.f)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

fn gwts_with_adversary(
    seed: u64,
    adversary: Box<dyn bgla::simnet::Process<bgla::core::gwts::GwtsMsg<u64>>>,
) -> (Vec<Vec<ValueSet<u64>>>, Vec<Vec<u64>>) {
    let (n, f, rounds) = (4usize, 1usize, 4u64);
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
    for i in 0..3 {
        let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for r in 0..rounds - 2 {
            schedule.insert(r, vec![(i as u64 + 1) * 100 + r]);
        }
        b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
    }
    b = b.add(adversary);
    let mut sim = b.build();
    let out = sim.run(50_000_000);
    assert!(out.quiescent, "seed {seed}");
    let mut seqs = Vec::new();
    let mut inputs = Vec::new();
    for i in 0..3 {
        let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
        seqs.push(p.decisions.clone());
        inputs.push(p.all_inputs.clone());
    }
    (seqs, inputs)
}

#[test]
fn gwts_survives_round_jumper() {
    for seed in 0..10u64 {
        let (seqs, inputs) = gwts_with_adversary(seed, Box::new(RoundJumper::new(10)));
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(s.len(), 4, "seed {seed} p{i}: round jumper clogged rounds");
        }
        spec::check_local_stability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_generalized_inclusivity(&inputs, &seqs)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn gwts_survives_silent_and_batch_equivocator() {
    for seed in 0..8u64 {
        let (seqs, _) = gwts_with_adversary(seed, Box::new(SilentG::default()));
        for s in &seqs {
            assert_eq!(s.len(), 4, "seed {seed}: silent process blocked rounds");
        }
        spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));

        let a: ValueSet<u64> = [666].into_iter().collect();
        let bset: ValueSet<u64> = [777].into_iter().collect();
        let (seqs, _) = gwts_with_adversary(seed, Box::new(BatchEquivocator { a, b: bset }));
        spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Equivocated batches: never both values decided anywhere.
        for s in seqs.iter().flatten() {
            assert!(
                !(s.contains(&666) && s.contains(&777)),
                "seed {seed}: equivocated batches coexist"
            );
        }
    }
}

/// A broken ack stream costs its origin's votes and nothing else: every
/// round is decided, and what waits for the records the breaker never
/// sends goes once it is old and the breaker's next full record has made
/// it useless, instead of piling up.
#[test]
fn gwts_survives_ack_stream_breaker() {
    for seed in 0..10u64 {
        let (n, f, rounds) = (4usize, 1usize, 24u64);
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..3 {
            let schedule = (0..rounds - 2)
                .map(|r| (r, vec![(i as u64 + 1) * 100 + r]))
                .collect();
            b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
        }
        let mut sim = b.add(Box::new(AckStreamBreaker::new(666u64))).build();
        sim.start();
        let mut parked_max = 0;
        while sim.step() {
            for i in 0..3 {
                let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
                parked_max = parked_max.max(p.ack_waiting_len());
            }
        }
        let sent = sim.process_as::<AckStreamBreaker<u64>>(3).unwrap().tag as usize;
        // Pruning keeps the current round, the one before it and what
        // runs ahead of them: four rounds' worth at the very most, each
        // waiting record being the last one below a full record.
        let per_round = sent.div_ceil(rounds as usize);
        assert!(
            per_round >= 3 && (1..=4 * per_round).contains(&parked_max),
            "seed {seed}: {parked_max} of the breaker's {sent} records parked at once"
        );
        let mut seqs = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..3 {
            let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
            assert_eq!(p.decisions.len(), rounds as usize, "seed {seed} p{i}");
            assert!(p.decisions.iter().all(|d| !d.contains(&666)), "seed {seed}");
            seqs.push(p.decisions.clone());
            inputs.push(p.all_inputs.clone());
        }
        spec::check_local_stability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_generalized_inclusivity(&inputs, &seqs)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// A forger of names costs its own votes and nothing else: every round is
/// decided, neither of its equivocated batches is, and what waits on a
/// name that never resolves is bounded — an ack goes once it is old and
/// the forger's next full record has made it useless; a request waits for
/// good, one per round the forger asks in, as a request for an unsafe
/// value always did.
#[test]
fn gwts_survives_name_forger() {
    for seed in 0..10u64 {
        let (n, f, rounds) = (4usize, 1usize, 24u64);
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..3 {
            let schedule = (0..rounds - 2)
                .map(|r| {
                    (
                        r,
                        vec![
                            (i as u64 + 1) * 1000 + 2 * r,
                            (i as u64 + 1) * 1000 + 2 * r + 1,
                        ],
                    )
                })
                .collect();
            b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
        }
        let (a, bset) = ([666].into_iter().collect(), [777].into_iter().collect());
        let mut sim = b.add(Box::new(NameForger::new(3, a, bset))).build();
        sim.start();
        let mut parked_max = 0;
        while sim.step() {
            for i in 0..3 {
                let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
                parked_max = parked_max.max(p.ack_waiting_len());
            }
        }
        let sent = sim.process_as::<NameForger<u64>>(3).unwrap().acks as usize;
        let per_round = sent.div_ceil(rounds as usize);
        assert!(
            per_round >= 3 && (1..=4 * per_round).contains(&parked_max),
            "seed {seed}: {parked_max} of the forger's {sent} records parked at once"
        );
        let mut seqs = Vec::new();
        let mut inputs = Vec::new();
        for i in 0..3 {
            let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
            assert_eq!(p.decisions.len(), rounds as usize, "seed {seed} p{i}");
            assert!(
                p.parked_len() <= rounds as usize + 4 * per_round,
                "seed {seed} p{i}"
            );
            for d in &p.decisions {
                assert!(!d.contains(&666) && !d.contains(&777), "seed {seed} p{i}");
            }
            seqs.push(p.decisions.clone());
            inputs.push(p.all_inputs.clone());
        }
        spec::check_local_stability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_generalized_inclusivity(&inputs, &seqs)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
