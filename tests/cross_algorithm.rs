//! Cross-crate integration tests: the three one-shot algorithms (WTS,
//! SbS) and the two generalized ones (GWTS, GSbS) all solve the same
//! problem — their runs must satisfy the same specification, and their
//! decisions must form chains in the set lattice.

use bgla::core::gsbs::GsbsProcess;
use bgla::core::gwts::GwtsProcess;
use bgla::core::sbs::SbsProcess;
use bgla::core::wts::WtsProcess;
use bgla::core::ValueSet;
use bgla::core::{spec, SystemConfig};
use bgla::simnet::{RandomScheduler, SimulationBuilder};
use std::collections::BTreeMap;

/// Both one-shot algorithms satisfy the full LA spec on the same inputs.
#[test]
fn wts_and_sbs_satisfy_identical_spec() {
    let (n, f) = (4usize, 1usize);
    let config = SystemConfig::new(n, f);
    let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();

    // WTS.
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(5)));
    for (i, &input) in inputs.iter().enumerate() {
        b = b.add(Box::new(WtsProcess::new(i, config, input)));
    }
    let mut wts = b.build();
    assert!(wts.run(u64::MAX / 2).quiescent);

    // SbS.
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(5)));
    for (i, &input) in inputs.iter().enumerate() {
        b = b.add(Box::new(SbsProcess::new(i, config, input)));
    }
    let mut sbs = b.build();
    assert!(sbs.run(u64::MAX / 2).quiescent);

    for (name, decisions) in [
        (
            "wts",
            (0..n)
                .map(|i| {
                    wts.process_as::<WtsProcess<u64>>(i)
                        .unwrap()
                        .decision
                        .clone()
                        .expect("liveness")
                })
                .collect::<Vec<_>>(),
        ),
        (
            "sbs",
            (0..n)
                .map(|i| {
                    sbs.process_as::<SbsProcess<u64>>(i)
                        .unwrap()
                        .decision
                        .clone()
                        .expect("liveness")
                })
                .collect::<Vec<_>>(),
        ),
    ] {
        spec::check_comparability(&decisions).unwrap_or_else(|e| panic!("{name}: {e}"));
        let pairs: Vec<(u64, ValueSet<u64>)> = inputs
            .iter()
            .copied()
            .zip(decisions.iter().cloned())
            .collect();
        spec::check_inclusivity(&pairs).unwrap_or_else(|e| panic!("{name}: {e}"));
        let x: std::collections::BTreeSet<u64> = inputs.iter().copied().collect();
        spec::check_nontriviality(&x, &decisions, f).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Decisions form a chain in the power-set lattice of `ValueSet` — the
/// lattice-theoretic reading of Comparability.
#[test]
fn decisions_embed_into_set_lattice_chains() {
    let (n, f) = (7usize, 2usize);
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(11)));
    for i in 0..n {
        b = b.add(Box::new(WtsProcess::new(i, config, i as u64)));
    }
    let mut sim = b.build();
    assert!(sim.run(u64::MAX / 2).quiescent);
    let mut decisions: Vec<ValueSet<u64>> = (0..n)
        .map(|i| {
            sim.process_as::<WtsProcess<u64>>(i)
                .unwrap()
                .decision
                .clone()
                .unwrap()
        })
        .collect();
    decisions.sort_by_key(ValueSet::len);
    for pair in decisions.windows(2) {
        assert!(
            pair[0].is_subset(&pair[1]),
            "decisions form a chain in the lattice: {:?} ⊄ {:?}",
            pair[0],
            pair[1]
        );
    }
    // The join of all decisions equals the largest decision.
    let join = decisions.iter().fold(ValueSet::new(), |acc, d| acc.join(d));
    assert!(decisions.contains(&join));
}

/// GWTS and GSbS produce mutually consistent chains on the same
/// workload shape.
#[test]
fn generalized_variants_produce_monotone_chains() {
    let (n, f, rounds) = (4usize, 1usize, 3u64);
    let config = SystemConfig::new(n, f);

    let mut b = SimulationBuilder::new();
    for i in 0..n {
        let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        schedule.insert(0, vec![i as u64]);
        b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
    }
    let mut gwts = b.build();
    assert!(gwts.run(u64::MAX / 2).quiescent);

    let mut b = SimulationBuilder::new();
    for i in 0..n {
        let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        schedule.insert(0, vec![i as u64]);
        b = b.add(Box::new(GsbsProcess::new(i, config, schedule, rounds)));
    }
    let mut gsbs = b.build();
    assert!(gsbs.run(u64::MAX / 2).quiescent);

    let gwts_seqs: Vec<Vec<ValueSet<u64>>> = (0..n)
        .map(|i| {
            gwts.process_as::<GwtsProcess<u64>>(i)
                .unwrap()
                .decisions
                .clone()
        })
        .collect();
    let gsbs_seqs: Vec<Vec<ValueSet<u64>>> = (0..n)
        .map(|i| {
            gsbs.process_as::<GsbsProcess<u64>>(i)
                .unwrap()
                .decisions
                .clone()
        })
        .collect();

    for (name, seqs) in [("gwts", &gwts_seqs), ("gsbs", &gsbs_seqs)] {
        spec::check_local_stability(seqs).unwrap_or_else(|e| panic!("{name}: {e}"));
        spec::check_global_comparability(seqs).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(s.len(), rounds as usize, "{name} p{i} decided every round");
        }
        // Both reach the full value set {0,1,2,3} in their final round.
        let expect: ValueSet<u64> = (0..n as u64).collect();
        assert!(
            seqs.iter().any(|s| s.last() == Some(&expect)),
            "{name}: nobody converged to the full set"
        );
    }
}

/// Determinism: the same seed yields bit-identical outcomes; different
/// seeds may differ (so the test suite really explores schedules).
#[test]
fn simulations_are_deterministic_per_seed() {
    let run = |seed: u64| -> (u64, Vec<Option<ValueSet<u64>>>) {
        let config = SystemConfig::new(4, 1);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..4 {
            b = b.add(Box::new(WtsProcess::new(i, config, i as u64)));
        }
        let mut sim = b.build();
        sim.run(u64::MAX / 2);
        (
            sim.metrics().total_sent(),
            (0..4)
                .map(|i| {
                    sim.process_as::<WtsProcess<u64>>(i)
                        .unwrap()
                        .decision
                        .clone()
                })
                .collect(),
        )
    };
    assert_eq!(run(1), run(1));
    assert_eq!(run(2), run(2));
}
