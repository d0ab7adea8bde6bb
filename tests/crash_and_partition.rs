//! Crash-fault and partition-fault scenarios: crashes are a special case
//! of Byzantine behavior, and temporary partitions are a legal
//! asynchronous schedule — WTS must ride through both.
//!
//! Crashes are engine-level ([`bgla::simnet::Simulation::crash`]): the
//! victim loses its in-flight inbox and all future traffic at the wire.

use bgla::core::wts::{WtsMsg, WtsProcess};
use bgla::core::ValueSet;
use bgla::core::{spec, SystemConfig};
use bgla::simnet::{FifoScheduler, PartitionScheduler, RandomScheduler, SimulationBuilder};

fn decisions_of(
    sim: &bgla::simnet::Simulation<WtsMsg<u64>>,
    ids: impl Iterator<Item = usize>,
) -> Vec<Option<ValueSet<u64>>> {
    ids.map(|i| {
        sim.process_as::<WtsProcess<u64>>(i)
            .expect("survivor is a plain WtsProcess")
            .decision
            .clone()
    })
    .collect()
}

/// Engine crash API: a process crash-stopped mid-protocol (after a
/// handful of deliveries, i.e. possibly mid-quorum) must not endanger
/// the survivors, and the wire must go dark for it — no delivery ever
/// reaches the victim after the crash.
#[test]
fn engine_crash_mid_protocol_is_tolerated() {
    for crash_after in [0u64, 1, 3, 7, 15] {
        for seed in 0..5 {
            let (n, f) = (4usize, 1usize);
            let config = SystemConfig::new(n, f);
            let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
            for i in 0..n {
                b = b.add(Box::new(WtsProcess::new(i, config, i as u64)));
            }
            let mut sim = b.build();
            sim.enable_trace();
            sim.start();
            let mut steps = 0u64;
            while steps < crash_after && sim.step() {
                steps += 1;
            }
            sim.crash(3);
            let crashed_at = sim.metrics().delivered;
            let out = sim.run(10_000_000);
            assert!(out.quiescent, "crash_after={crash_after} seed={seed}");
            assert!(sim.is_crashed(3));
            let survivors: Vec<ValueSet<u64>> = decisions_of(&sim, 0..3)
                .into_iter()
                .map(|d| {
                    d.unwrap_or_else(|| {
                        panic!("crash_after={crash_after} seed={seed}: survivor stuck")
                    })
                })
                .collect();
            spec::check_comparability(&survivors)
                .unwrap_or_else(|e| panic!("crash_after={crash_after} seed={seed}: {e}"));
            // The wire is dark: nothing was delivered to the victim
            // after the crash point.
            let late_to_victim = sim
                .trace()
                .unwrap()
                .events()
                .iter()
                .filter(|e| e.to == 3 && e.step >= crashed_at)
                .count();
            assert_eq!(
                late_to_victim, 0,
                "crash_after={crash_after} seed={seed}: delivery reached a crashed process"
            );
        }
    }
}

/// Engine crash API at `f = 2`: two victims crash-stopped at different
/// protocol phases simultaneously.
#[test]
fn engine_staggered_crashes_at_f2() {
    for seed in 0..5 {
        let (n, f) = (7usize, 2usize);
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..n {
            b = b.add(Box::new(WtsProcess::new(i, config, i as u64)));
        }
        let mut sim = b.build();
        sim.start();
        let mut steps = 0u64;
        while steps < 2 && sim.step() {
            steps += 1;
        }
        sim.crash(5);
        while steps < 20 && sim.step() {
            steps += 1;
        }
        sim.crash(6);
        let out = sim.run(50_000_000);
        assert!(out.quiescent, "seed {seed}");
        let mut decisions = Vec::new();
        for i in 0..5 {
            let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
            decisions.push(p.decision.clone().expect("survivor decides"));
        }
        spec::check_comparability(&decisions).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let survivor_inputs: std::collections::BTreeSet<u64> = (0..5).map(|i| i as u64).collect();
        spec::check_nontriviality(&survivor_inputs, &decisions, f)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// A temporary 2|2 partition delays but cannot prevent agreement: the
/// quorum (3 of 4) spans both sides, so decisions wait for the heal and
/// then complete consistently.
#[test]
fn temporary_partition_delays_but_preserves_agreement() {
    for heal_after in [10u64, 50, 200] {
        let (n, f) = (4usize, 1usize);
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(PartitionScheduler::new(
            vec![0, 1],
            heal_after,
            Box::new(FifoScheduler::new()),
        )));
        for i in 0..n {
            b = b.add(Box::new(WtsProcess::new(i, config, 100 + i as u64)));
        }
        let mut sim = b.build();
        let out = sim.run(10_000_000);
        assert!(out.quiescent, "heal_after={heal_after}");
        let mut decisions = Vec::new();
        for i in 0..n {
            let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
            decisions.push(
                p.decision
                    .clone()
                    .unwrap_or_else(|| panic!("heal_after={heal_after}: p{i} stuck")),
            );
            assert!(p.decision.as_ref().unwrap().contains(&(100 + i as u64)));
        }
        spec::check_comparability(&decisions)
            .unwrap_or_else(|e| panic!("heal_after={heal_after}: {e}"));
    }
}
