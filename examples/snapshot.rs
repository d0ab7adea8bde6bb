//! Atomic snapshot object — the problem Lattice Agreement was invented
//! for (Attiya, Herlihy, Rachman 1995; paper §2): each process owns a
//! register; `update` writes it; `scan` returns a consistent global view
//! of all registers. Comparability of lattice decisions makes every
//! pair of scans ordered — i.e. the scans are *atomic*.
//!
//! Built directly on the BFT RSM: registers are encoded as commands
//! `Put("reg:<pid>:<seq>=<value>")`, and a scan folds the decided
//! command set with a per-register last-writer-wins (max seq) rule.
//!
//! Run with: `cargo run --example snapshot`

use bgla::core::SystemConfig;
use bgla::core::ValueSet;
use bgla::rsm::{ClientOp, Cmd, Op, Replica, WorkloadClient};
use bgla::simnet::{RandomScheduler, SimulationBuilder};
use std::collections::BTreeMap;

/// A snapshot: register id -> (seq, value), folded via max-by-seq.
type Snapshot = BTreeMap<u64, (u64, u64)>;

/// Folds a decided command set into a snapshot of the registers.
fn fold_snapshot(cmds: &ValueSet<Cmd>) -> Snapshot {
    let mut snap = Snapshot::new();
    for c in cmds {
        if let Op::Add(value) = c.op {
            // Register id = client id; writes are (seq, value) pairs,
            // the later seq wins.
            let write = snap.entry(c.client).or_insert((c.seq, value));
            *write = (*write).max((c.seq, value));
        }
    }
    snap
}

fn main() {
    let (n, f) = (4usize, 1usize);
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(77)));
    for i in 0..n {
        b = b.add(Box::new(Replica::new(i, config, 50)));
    }
    // Three writer/scanner clients; each updates its own register twice
    // and scans in between.
    for id in 1..=3u64 {
        b = b.add(Box::new(WorkloadClient::new(
            id,
            n,
            f,
            vec![
                ClientOp::Update(Op::Add(id * 10)), // register := 10*id (seq 0)
                ClientOp::Read,                     // scan 1
                ClientOp::Update(Op::Add(id * 10 + 1)), // register := 10*id+1 (seq 2)
                ClientOp::Read,                     // scan 2
            ],
        )));
    }
    let mut sim = b.build();
    let outcome = sim.run(200_000_000);
    assert!(outcome.quiescent);

    println!("Atomic snapshot object over the BFT RSM (n={n}, f={f})\n");
    let mut all_snaps: Vec<Snapshot> = Vec::new();
    for (k, pid) in (n..n + 3).enumerate() {
        let c = sim.process_as::<WorkloadClient>(pid).unwrap();
        assert!(c.finished(), "client {k} unfinished");
        println!("scanner {}:", k + 1);
        for (s, read) in c.reads().iter().enumerate() {
            let snap = fold_snapshot(read);
            let view: Vec<String> = snap
                .iter()
                .map(|(reg, (seq, val))| format!("r{reg}={val}@{seq}"))
                .collect();
            println!("  scan {}: [{}]", s + 1, view.join(", "));
            all_snaps.push(snap);
        }
    }

    // Atomicity: all snapshots (across all scanners!) are mutually
    // comparable in the snapshot lattice — they form one chain. The order
    // is pointwise: every register `a` holds, `b` holds at the same or a
    // later write.
    let leq =
        |a: &Snapshot, b: &Snapshot| a.iter().all(|(reg, w)| b.get(reg).is_some_and(|v| w <= v));
    for i in 0..all_snaps.len() {
        for j in (i + 1)..all_snaps.len() {
            let (a, b) = (&all_snaps[i], &all_snaps[j]);
            assert!(
                leq(a, b) || leq(b, a),
                "snapshots {i} and {j} are incomparable — not atomic!"
            );
        }
    }
    println!(
        "\nAll {} scans are pairwise comparable: the snapshot object is atomic,\n\
         exactly the LA ⇒ snapshot equivalence of Attiya-Herlihy-Rachman (paper §2).",
        all_snaps.len()
    );
}
