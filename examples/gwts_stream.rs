//! Generalized Lattice Agreement as a stream: processes receive inputs
//! continuously (batched per round), decide an ever-growing chain, and a
//! round-jumping Byzantine process fails to clog the rounds thanks to
//! the `Safe_r` trust rule.
//!
//! Run with: `cargo run --example gwts_stream`

use bgla::core::gwts::{GwtsMsg, GwtsProcess, NamedSet};
use bgla::core::{spec, SetUpdate, SystemConfig};
use bgla::simnet::{Context, Process, RandomScheduler, SimulationBuilder};
use std::any::Any;
use std::collections::BTreeMap;

/// Byzantine proposer that pretends to be many rounds ahead: floods
/// ack requests for future rounds hoping acceptors chase it.
struct RoundJumper;
impl Process<GwtsMsg<u64>> for RoundJumper {
    fn on_start(&mut self, ctx: &mut Context<GwtsMsg<u64>>) {
        for round in 5..20 {
            ctx.broadcast(GwtsMsg::AckReq {
                proposed: SetUpdate::Full(NamedSet::default()),
                ts: round * 100,
                round,
            });
        }
    }
    fn on_message(&mut self, _f: usize, _m: GwtsMsg<u64>, _c: &mut Context<GwtsMsg<u64>>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn main() {
    let (n, f, rounds) = (4usize, 1usize, 5u64);
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(7)));
    for i in 0..3 {
        let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for r in 0..rounds - 2 {
            schedule.insert(r, vec![(i as u64 + 1) * 100 + r]);
        }
        b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
    }
    b = b.add(Box::new(RoundJumper));
    let mut sim = b.build();
    let outcome = sim.run(100_000_000);
    assert!(outcome.quiescent);

    println!("GWTS stream: n = 4, f = 1, Byzantine round-jumper at p3, {rounds} rounds\n");
    let mut seqs = Vec::new();
    for i in 0..3 {
        let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
        println!("p{i} decision chain:");
        for (r, d) in p.decisions.iter().enumerate() {
            println!("  round {r}: {d:?} (depth {})", p.decision_depths[r]);
        }
        assert_eq!(p.decisions.len(), rounds as usize, "liveness per round");
        seqs.push(p.decisions.clone());
        println!();
    }
    spec::check_local_stability(&seqs).expect("non-decreasing chains");
    spec::check_global_comparability(&seqs).expect("cross-process comparability");
    println!(
        "Despite the round-jumper, every correct process decided all {rounds} rounds;\n\
         future-round requests were ignored until their rounds became trusted (Safe_r)."
    );
    println!(
        "\nMessages: total {}, per-decision ≈ {}",
        sim.metrics().total_sent(),
        sim.metrics().total_sent() / (3 * rounds)
    );
}
