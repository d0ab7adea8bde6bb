//! The schedule-debugging workflow: record a randomized adversarial run,
//! replay it bit-identically, then *edit the trace* to probe how the
//! outcome depends on delivery order — the tooling you reach for when a
//! distributed-systems heisenbug shows up once in a thousand schedules.
//!
//! Run with: `cargo run --example replay_debug`

use bgla::core::adversary::NackSpammer;
use bgla::core::wts::{WtsMsg, WtsProcess};
use bgla::core::SystemConfig;
use bgla::simnet::{
    RandomScheduler, RecordingScheduler, ReplayScheduler, Scheduler, Simulation, SimulationBuilder,
};

fn build(scheduler: Box<dyn Scheduler>) -> Simulation<WtsMsg<u64>> {
    let config = SystemConfig::new(4, 1);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..3 {
        b = b.add(Box::new(WtsProcess::new(i, config, 100 + i as u64)));
    }
    b = b.add(Box::new(NackSpammer::new(999u64)));
    b.build()
}

fn summarize(sim: &Simulation<WtsMsg<u64>>) -> String {
    let depths: Vec<String> = (0..3)
        .map(|i| {
            let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
            format!(
                "p{i}: {} values @ depth {}",
                p.decision.as_ref().map(|d| d.len()).unwrap_or(0),
                p.decision_depth.unwrap_or(0),
            )
        })
        .collect();
    format!(
        "{} msgs | {}",
        sim.metrics().total_sent(),
        depths.join(" | ")
    )
}

fn main() {
    // 1. Record a randomized adversarial run.
    let (rec, trace) = RecordingScheduler::new(Box::new(RandomScheduler::new(0xBAD5EED)));
    let mut original = build(Box::new(rec));
    original.run(u64::MAX / 2);
    println!("original   : {}", summarize(&original));
    let recorded = trace.lock().unwrap().clone();
    println!(
        "trace      : {} delivery decisions recorded",
        recorded.len()
    );

    // 2. Replay bit-identically.
    let mut replayed = build(Box::new(ReplayScheduler::new(recorded.clone())));
    replayed.run(u64::MAX / 2);
    println!("replayed   : {}", summarize(&replayed));
    assert_eq!(summarize(&original), summarize(&replayed));

    // 3. Probe: keep only a prefix of the schedule, FIFO afterwards —
    //    "what if the network had calmed down at step k?"
    for fraction in [4usize, 2] {
        let prefix: Vec<u64> = recorded[..recorded.len() / fraction].to_vec();
        let mut probe = build(Box::new(ReplayScheduler::new(prefix)));
        probe.run(u64::MAX / 2);
        println!(
            "prefix 1/{fraction}  : {} (schedule edited, outcome still safe)",
            summarize(&probe)
        );
        // Safety must hold under any edit — that's the point.
        let decisions: Vec<_> = (0..3)
            .map(|i| {
                probe
                    .process_as::<WtsProcess<u64>>(i)
                    .unwrap()
                    .decision
                    .clone()
                    .expect("liveness")
            })
            .collect();
        bgla::core::spec::check_comparability(&decisions).expect("edited schedule broke safety");
    }
    println!("\nRecord → replay → edit: deterministic down to the message, every time.");
}
