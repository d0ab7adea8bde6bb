//! Quickstart: four processes run one-shot Byzantine Lattice Agreement
//! (WTS) over the power-set lattice of Figure 1, then prints the decided
//! chain, smallest element first.
//!
//! Run with: `cargo run --example quickstart`

use bgla::core::{spec, wts::WtsProcess, SystemConfig};
use bgla::simnet::SimulationBuilder;

fn main() {
    // Figure 1's setting: clients issued add(1)..add(4); each process
    // proposes one update.
    let config = SystemConfig::new(4, 1);
    let mut builder = SimulationBuilder::new();
    for i in 0..4 {
        builder = builder.add(Box::new(WtsProcess::new(i, config, i as u64 + 1)));
    }
    let mut sim = builder.build();
    let outcome = sim.run(1_000_000);
    assert!(outcome.quiescent, "the protocol must terminate");

    println!("WTS with n = 4, f = 1 (all correct), inputs {{1}},{{2}},{{3}},{{4}}\n");
    let mut decisions = Vec::new();
    for i in 0..4 {
        let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
        let d = p.decision.clone().expect("liveness");
        println!(
            "  p{i} proposed {{{}}}  ->  decided {:?}  ({} message delays, {} refinements)",
            i + 1,
            d,
            p.decision_depth.unwrap(),
            p.refinements
        );
        decisions.push(d);
    }

    spec::check_comparability(&decisions).expect("decisions form a chain");
    println!("\nAll decisions are pairwise comparable (they lie on one chain).\n");

    // The decided chain, like the red edges of Figure 1's Hasse diagram.
    decisions.sort_by_key(|d| d.len());
    decisions.dedup();
    let chain: Vec<String> = decisions.iter().map(|d| format!("{d:?}")).collect();
    println!("Decided chain in 2^{{1,2,3,4}}, smallest first:\n");
    println!("  {}", chain.join("  ⊆  "));

    println!(
        "\nTotal messages: {}   (per process worst case: {})",
        sim.metrics().total_sent(),
        sim.metrics().max_sent_per_process()
    );
}
