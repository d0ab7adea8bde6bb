//! E8 (Section 8 intro): SbS trades message *count* for message *size* —
//! its messages can reach `O(n²)` bytes (attached proofs of safety),
//! which WTS never does. Measures bytes on the wire and the largest
//! single message for both.
//!
//! Also reports **proof interning**: within each `ack_req`/`nack`, a
//! proof shared by several values transmits once (what the wire format
//! models — `proofs interned` counts the distinct proofs actually
//! shipped) vs the flat encoding that attaches a copy per proven value
//! (`proof refs`). The savings column is the byte reduction interning
//! delivers; proof *verification* is likewise interned per process.
//!
//! ```text
//!  n | proof refs | proofs interned | proof B interned | proof B flat | saved
//! ```
//!
//! Also reports the delta-encoded proposal traffic: GWTS `ack_req`
//! bytes, and SbS/GSbS `ack_req + nack` bytes with the proofs that
//! travelled by reference.
//!
//! All sweeps run sharded, one (n) / (n, batch) cell per core.

use bgla_bench::{growth_exponent, measure_sbs, measure_wts, row, run_indexed};
use bgla_core::gsbs::GsbsProcess;
use bgla_core::gwts::GwtsProcess;
use bgla_core::sbs::SbsProcess;
use bgla_core::SystemConfig;
use bgla_simnet::{FifoScheduler, Metrics, RandomScheduler, SimulationBuilder};
use std::collections::BTreeMap;

/// `ack_req + nack` bytes — the proof-carrying traffic the proven-delta
/// pipeline targets.
fn proof_traffic(m: &Metrics) -> u64 {
    m.bytes_by_kind.get("ack_req").copied().unwrap_or(0)
        + m.bytes_by_kind.get("nack").copied().unwrap_or(0)
}

/// (total bytes, ack_req + nack bytes, proofs shipped by reference).
fn proven_bytes(m: &Metrics) -> (u64, u64, u64) {
    (m.total_bytes(), proof_traffic(m), m.proofs_by_ref)
}

/// Runs one-shot SbS under a refinement-provoking random schedule.
fn sbs_bytes(n: usize, f: usize) -> (u64, u64, u64) {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(3)));
    for i in 0..n {
        b = b.add(Box::new(SbsProcess::new(i, config, 100 + i as u64)));
    }
    let mut sim = b.build();
    sim.run(u64::MAX / 2);
    proven_bytes(sim.metrics())
}

/// Runs a GSbS stream (cumulative proposals).
fn gsbs_bytes(n: usize, f: usize, rounds: u64) -> (u64, u64, u64) {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(Box::new(FifoScheduler::new()));
    for i in 0..n {
        let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for r in 0..rounds.saturating_sub(2) {
            schedule.insert(r, vec![(i as u64) * 1_000 + r]);
        }
        b = b.add(Box::new(GsbsProcess::new(i, config, schedule, rounds)));
    }
    let mut sim = b.build();
    sim.run(u64::MAX / 2);
    proven_bytes(sim.metrics())
}

/// Runs a GWTS stream and returns (total bytes, ack_req bytes).
fn gwts_bytes(n: usize, f: usize, rounds: u64, batch: u64) -> (u64, u64) {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(Box::new(FifoScheduler::new()));
    for i in 0..n {
        let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for r in 0..rounds.saturating_sub(2) {
            schedule.insert(
                r,
                (0..batch)
                    .map(|k| (i as u64) * 1_000_000 + r * 1_000 + k)
                    .collect(),
            );
        }
        b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
    }
    let mut sim = b.build();
    sim.run(u64::MAX / 2);
    let ack_req = sim
        .metrics()
        .bytes_by_kind
        .get("ack_req")
        .copied()
        .unwrap_or(0);
    (sim.metrics().total_bytes(), ack_req)
}

fn main() {
    println!("E8: bytes on the wire — WTS vs SbS at f = 1\n");
    println!(
        "{}",
        row(&[
            "n".into(),
            "WTS bytes".into(),
            "SbS bytes".into(),
            "WTS max msg".into(),
            "SbS max msg".into(),
            "ratio".into(),
        ])
    );
    let ns = [4usize, 7, 10, 13, 16];
    let cells = run_indexed(ns.len(), |i| {
        let n = ns[i];
        (
            measure_wts(n, 1, Box::new(FifoScheduler::new())),
            measure_sbs(n, 1, Box::new(FifoScheduler::new())),
        )
    });
    let (mut xs, mut wts_big, mut sbs_big) = (Vec::new(), Vec::new(), Vec::new());
    for (&n, (w, s)) in ns.iter().zip(&cells) {
        println!(
            "{}",
            row(&[
                n.to_string(),
                w.total_bytes.to_string(),
                s.total_bytes.to_string(),
                w.max_message_bytes.to_string(),
                s.max_message_bytes.to_string(),
                format!("{:.1}x", s.total_bytes as f64 / w.total_bytes as f64),
            ])
        );
        xs.push(n as f64);
        wts_big.push(w.max_message_bytes as f64);
        sbs_big.push(s.max_message_bytes as f64);
    }
    println!(
        "\nProof transmission: inline interned vs by-reference vs per-value copies (SbS, f = 1)\n"
    );
    println!(
        "{}",
        row(&[
            "n".into(),
            "proof refs".into(),
            "inline".into(),
            "by ref".into(),
            "inline B".into(),
            "ref B".into(),
            "flat B".into(),
            "saved".into(),
        ])
    );
    for (&n, (_, s)) in ns.iter().zip(&cells) {
        let shipped = s.proof_bytes_interned + s.proof_ref_bytes;
        println!(
            "{}",
            row(&[
                n.to_string(),
                s.proof_refs.to_string(),
                s.proofs_interned.to_string(),
                s.proofs_by_ref.to_string(),
                s.proof_bytes_interned.to_string(),
                s.proof_ref_bytes.to_string(),
                s.proof_bytes_flat.to_string(),
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - shipped as f64 / s.proof_bytes_flat.max(1) as f64)
                ),
            ])
        );
        assert!(s.proof_refs > 0, "SbS must ship proofs (n={n})");
        assert!(
            s.proofs_interned <= s.proof_refs,
            "interning cannot create proofs (n={n})"
        );
        assert!(
            shipped <= s.proof_bytes_flat,
            "shipped proof bytes must not exceed flat (n={n})"
        );
    }
    println!("\nShape ✓: one safetying exchange certifies many values, so shipping each");
    println!("distinct proof once per message — and as a 32-byte reference once a peer");
    println!("holds it — beats a copy-per-value flat encoding.");

    let kw = growth_exponent(&xs, &wts_big);
    let ks = growth_exponent(&xs, &sbs_big);
    println!("\nLargest-message growth exponents: WTS {kw:.2} (≈1: a set of n values),");
    println!("SbS {ks:.2} (≈2: proofs are quorum×set = O(n²)).");
    assert!(ks > kw, "SbS messages must grow faster than WTS messages");
    assert!(
        ks > 1.5,
        "SbS max message should be ~quadratic, got {ks:.2}"
    );
    println!("\nShape ✓: the signature algorithm's messages are asymptotically larger —");
    println!("the exact trade Section 8 announces.");

    println!("\nDelta messages: GWTS bytes with delta-encoded ack_reqs (FIFO schedule)\n");
    println!(
        "{}",
        row(&[
            "n".into(),
            "batch".into(),
            "total".into(),
            "ack_req".into(),
            "share".into(),
        ])
    );
    let grid = [(4usize, 8u64), (7, 8), (7, 32), (10, 32)];
    let delta_cells = run_indexed(grid.len(), |i| {
        let (n, batch) = grid[i];
        gwts_bytes(n, (n - 1) / 3, 4, batch)
    });
    for (&(n, batch), &(total, ack_req)) in grid.iter().zip(&delta_cells) {
        println!(
            "{}",
            row(&[
                n.to_string(),
                batch.to_string(),
                total.to_string(),
                ack_req.to_string(),
                format!("{:.1}%", 100.0 * ack_req as f64 / total.max(1) as f64),
            ])
        );
    }

    println!("\nProven deltas: SbS/GSbS proof-carrying bytes (delta + references)\n");
    println!(
        "{}",
        row(&[
            "algo".into(),
            "n".into(),
            "rounds".into(),
            "total".into(),
            "ack+nack".into(),
            "by ref".into(),
        ])
    );
    // (algo, n, rounds): rounds = 1 means the one-shot SbS.
    let pd_grid = [
        ("sbs", 7usize, 1u64),
        ("sbs", 10, 1),
        ("gsbs", 7, 4),
        ("gsbs", 10, 6),
    ];
    let pd_cells = run_indexed(pd_grid.len(), |i| {
        let (algo, n, rounds) = pd_grid[i];
        let f = (n - 1) / 3;
        if algo == "sbs" {
            sbs_bytes(n, f)
        } else {
            gsbs_bytes(n, f, rounds)
        }
    });
    for (&(algo, n, rounds), &(total, proof_carrying, by_ref)) in pd_grid.iter().zip(&pd_cells) {
        println!(
            "{}",
            row(&[
                algo.into(),
                n.to_string(),
                rounds.to_string(),
                total.to_string(),
                proof_carrying.to_string(),
                by_ref.to_string(),
            ])
        );
        assert!(
            by_ref > 0,
            "no proof travelled by reference ({algo}, n={n}): deltas never engaged"
        );
    }
    println!("\nShape ✓: after first contact, proofs travel once per peer and then as");
    println!("32-byte references.");
}
