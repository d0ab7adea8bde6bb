//! Schedule record/replay: any run under any scheduler can be recorded
//! and replayed bit-identically — the mechanism for reproducing (and
//! hand-shrinking) schedule-dependent counterexamples.

use bgla::core::wts::{WtsMsg, WtsProcess};
use bgla::core::SystemConfig;
use bgla::core::ValueSet;
use bgla::simnet::{
    RandomScheduler, RecordingScheduler, ReplayScheduler, Scheduler, Simulation, SimulationBuilder,
};

fn build(scheduler: Box<dyn Scheduler>) -> Simulation<WtsMsg<u64>> {
    let config = SystemConfig::new(4, 1);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..4 {
        b = b.add(Box::new(WtsProcess::new(i, config, i as u64)));
    }
    b.build()
}

fn outcomes(sim: &Simulation<WtsMsg<u64>>) -> (u64, Vec<Option<ValueSet<u64>>>, Vec<u64>) {
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
        (0..4).map(|i| sim.depth_of(i)).collect(),
    )
}

#[test]
fn recorded_wts_run_replays_bit_identically() {
    for seed in [7u64, 99, 1234] {
        // Record a randomized run.
        let (rec, trace) = RecordingScheduler::new(Box::new(RandomScheduler::new(seed)));
        let mut original = build(Box::new(rec));
        assert!(original.run(u64::MAX / 2).quiescent);
        let want = outcomes(&original);

        // Replay the exact schedule.
        let mut replayed = build(Box::new(ReplayScheduler::new(
            trace.lock().unwrap().clone(),
        )));
        assert!(replayed.run(u64::MAX / 2).quiescent);
        assert_eq!(outcomes(&replayed), want, "seed {seed}: replay diverged");
    }
}

#[test]
fn empty_trace_falls_back_to_fifo_preserving_liveness() {
    let mut replayed = build(Box::new(ReplayScheduler::new(Vec::new())));
    assert!(replayed.run(u64::MAX / 2).quiescent);
    let (_, decisions, _) = outcomes(&replayed);
    for d in decisions {
        assert!(d.is_some(), "replay fallback broke liveness");
    }
}

#[test]
fn trace_with_one_missing_seq_resyncs() {
    // Drop a single mid-trace entry. The replay scheduler must resync
    // after the gap instead of counting every later delivery as a
    // divergence (the pre-fix behavior left the unmatched entry at the
    // front forever, degrading the whole tail to FIFO).
    let (rec, trace) = RecordingScheduler::new(Box::new(RandomScheduler::new(7)));
    let mut original = build(Box::new(rec));
    assert!(original.run(u64::MAX / 2).quiescent);

    let mut gapped: Vec<u64> = trace.lock().unwrap().clone();
    let total = gapped.len() as u64;
    gapped.remove(gapped.len() / 2);

    let mut replayed = build(Box::new(ReplayScheduler::new(gapped)));
    assert!(replayed.run(u64::MAX / 2).quiescent);
    let (_, decisions, _) = outcomes(&replayed);
    let concrete: Vec<ValueSet<u64>> = decisions.into_iter().map(|d| d.unwrap()).collect();
    bgla::core::spec::check_comparability(&concrete).unwrap();

    let divergences = replayed
        .scheduler_as::<ReplayScheduler>()
        .expect("scheduler type")
        .divergences;
    assert!(
        divergences < total / 2,
        "replay never resynced: {divergences} divergences over {total} deliveries"
    );
}

#[test]
fn truncated_trace_degrades_gracefully() {
    let (rec, trace) = RecordingScheduler::new(Box::new(RandomScheduler::new(42)));
    let mut original = build(Box::new(rec));
    original.run(u64::MAX / 2);
    // Replay only the first half of the schedule; the rest falls back to
    // FIFO. The run must still terminate with the full spec intact.
    let half: Vec<u64> = {
        let t = trace.lock().unwrap();
        t[..t.len() / 2].to_vec()
    };
    let mut partial = build(Box::new(ReplayScheduler::new(half)));
    assert!(partial.run(u64::MAX / 2).quiescent);
    let (_, decisions, _) = outcomes(&partial);
    let concrete: Vec<ValueSet<u64>> = decisions.into_iter().map(|d| d.unwrap()).collect();
    bgla::core::spec::check_comparability(&concrete).unwrap();
}
