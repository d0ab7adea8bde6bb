//! The `n ≥ 3f + 1` bound of Theorem 1, in three acts.

use bgla::core::adversary::{Silent, SplitBrain};
use bgla::core::wts::WtsProcess;
use bgla::core::ValueSet;
use bgla::core::{spec, SystemConfig};
use bgla::simnet::{FifoScheduler, SimulationBuilder, TargetedScheduler};

/// At n = 3f+1 the full spec holds even against the split-brain
/// adversary that breaks n = 3f systems.
#[test]
fn spec_holds_at_3f_plus_1_under_split_brain() {
    let config = SystemConfig::new(4, 1);
    let mut b = SimulationBuilder::new();
    for i in 0..3 {
        b = b.add(Box::new(WtsProcess::new(i, config, i as u64)));
    }
    b = b.add(Box::new(SplitBrain {
        a: 666u64,
        b: 777u64,
    }));
    let mut sim = b.build();
    assert!(sim.run(10_000_000).quiescent);
    let decisions: Vec<ValueSet<u64>> = (0..3)
        .map(|i| {
            sim.process_as::<WtsProcess<u64>>(i)
                .unwrap()
                .decision
                .clone()
                .expect("liveness at n=3f+1")
        })
        .collect();
    spec::check_comparability(&decisions).expect("comparability at n=3f+1");
}

/// At n = 3f, WTS (unchanged) keeps safety but cannot decide: the
/// quorum exceeds the reachable correct population.
#[test]
fn liveness_lost_at_3f() {
    let config = SystemConfig::new_unchecked(3, 1);
    let mut b = SimulationBuilder::new();
    for i in 0..2 {
        b = b.add(Box::new(WtsProcess::new(i, config, i as u64)));
    }
    b = b.add(Box::new(Silent::default()));
    let mut sim = b.build();
    assert!(sim.run(10_000_000).quiescent);
    for i in 0..2 {
        assert!(
            sim.process_as::<WtsProcess<u64>>(i)
                .unwrap()
                .decision
                .is_none(),
            "p{i} decided with quorum 3 > n-f = 2 reachable processes?!"
        );
    }
}

/// At n = 3f with the quorum naively lowered (f configured as 0), the
/// Theorem-1 split-brain run produces incomparable decisions.
#[test]
fn comparability_lost_at_3f_with_lowered_quorum() {
    let config = SystemConfig::new_unchecked(3, 0); // quorum 2
    let mut b = SimulationBuilder::new().scheduler(Box::new(TargetedScheduler::new(
        vec![(0, 1), (1, 0)],
        Box::new(FifoScheduler::new()),
    )));
    for i in 0..2 {
        b = b.add(Box::new(WtsProcess::new(i, config, 10 + i as u64)));
    }
    b = b.add(Box::new(SplitBrain {
        a: 666u64,
        b: 777u64,
    }));
    let mut sim = b.build();
    assert!(sim.run(10_000_000).quiescent);
    let d0 = sim
        .process_as::<WtsProcess<u64>>(0)
        .unwrap()
        .decision
        .clone()
        .expect("victim 0 decides under the lowered quorum");
    let d1 = sim
        .process_as::<WtsProcess<u64>>(1)
        .unwrap()
        .decision
        .clone()
        .expect("victim 1 decides under the lowered quorum");
    assert!(
        !d0.is_subset(&d1) && !d1.is_subset(&d0),
        "expected the Theorem-1 comparability violation, got {d0:?} vs {d1:?}"
    );
}
