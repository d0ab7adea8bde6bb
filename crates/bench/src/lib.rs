//! Shared experiment harness for the benchmark suite.
//!
//! Every quantitative claim in the paper maps to one `exp_*` binary (see
//! DESIGN.md's per-experiment index); this library holds the workload
//! builders and measurement helpers they share with the Criterion
//! benches.

pub mod shard;

pub use shard::{run_indexed, run_indexed_with, run_seeds, shard_count};

use bgla_core::gwts::{GwtsMsg, GwtsProcess};
use bgla_core::sbs::SbsProcess;
use bgla_core::wts::{WtsMsg, WtsProcess};
use bgla_core::SystemConfig;
use bgla_simnet::{FifoScheduler, Scheduler, Simulation, SimulationBuilder};
use std::collections::BTreeMap;

/// Measurements from one one-shot agreement run.
#[derive(Debug, Clone, Default)]
pub struct RunMeasurement {
    /// Worst decision latency in message delays across correct
    /// processes.
    pub max_depth: u64,
    /// Messages sent by the busiest process.
    pub max_msgs_per_process: u64,
    /// Total messages.
    pub total_msgs: u64,
    /// Total bytes on the wire.
    pub total_bytes: u64,
    /// Largest single message in bytes.
    pub max_message_bytes: usize,
    /// Worst refinement count.
    pub max_refinements: u64,
    /// Whether every correct process decided.
    pub all_decided: bool,
    /// Proof-of-safety references shipped (one per proven value; zero
    /// for algorithms without proofs).
    pub proof_refs: u64,
    /// Distinct proofs shipped inline after per-message interning.
    pub proofs_interned: u64,
    /// Distinct proofs shipped as id references (delta payloads).
    pub proofs_by_ref: u64,
    /// Proof bytes as transmitted inline (each distinct proof
    /// once/message).
    pub proof_bytes_interned: u64,
    /// Bytes paid for by-reference proofs.
    pub proof_ref_bytes: u64,
    /// Proof bytes a flat per-value encoding would have paid.
    pub proof_bytes_flat: u64,
}

/// Runs all-correct WTS and measures it.
pub fn measure_wts(n: usize, f: usize, scheduler: Box<dyn Scheduler>) -> RunMeasurement {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..n {
        b = b.add(Box::new(WtsProcess::new(i, config, i as u64)));
    }
    let mut sim = b.build();
    sim.run(u64::MAX / 2);
    measure_wts_sim(&sim, n)
}

/// Extracts measurements from a finished WTS simulation (correct
/// processes assumed to be `0..n_correct`).
pub fn measure_wts_sim(sim: &Simulation<WtsMsg<u64>>, n_correct: usize) -> RunMeasurement {
    let mut m = RunMeasurement {
        all_decided: true,
        ..Default::default()
    };
    for i in 0..n_correct {
        let p = sim.process_as::<WtsProcess<u64>>(i).unwrap();
        match p.decision_depth {
            Some(d) => m.max_depth = m.max_depth.max(d),
            None => m.all_decided = false,
        }
        m.max_refinements = m.max_refinements.max(p.refinements);
    }
    m.max_msgs_per_process = sim.metrics().max_sent_per_process();
    m.total_msgs = sim.metrics().total_sent();
    m.total_bytes = sim.metrics().total_bytes();
    m.max_message_bytes = sim.metrics().max_message_bytes;
    m
}

/// Runs all-correct SbS and measures it.
pub fn measure_sbs(n: usize, f: usize, scheduler: Box<dyn Scheduler>) -> RunMeasurement {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..n {
        b = b.add(Box::new(SbsProcess::new(i, config, i as u64)));
    }
    let mut sim = b.build();
    sim.run(u64::MAX / 2);
    let mut m = RunMeasurement {
        all_decided: true,
        ..Default::default()
    };
    for i in 0..n {
        let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
        match p.decision_depth {
            Some(d) => m.max_depth = m.max_depth.max(d),
            None => m.all_decided = false,
        }
        m.max_refinements = m.max_refinements.max(p.refinements);
    }
    m.max_msgs_per_process = sim.metrics().max_sent_per_process();
    m.total_msgs = sim.metrics().total_sent();
    m.total_bytes = sim.metrics().total_bytes();
    m.max_message_bytes = sim.metrics().max_message_bytes;
    m.proof_refs = sim.metrics().proof_refs;
    m.proofs_interned = sim.metrics().proofs_interned;
    m.proofs_by_ref = sim.metrics().proofs_by_ref;
    m.proof_bytes_interned = sim.metrics().proof_bytes_interned;
    m.proof_ref_bytes = sim.metrics().proof_ref_bytes;
    m.proof_bytes_flat = sim.metrics().proof_bytes_flat;
    m
}

/// Builds an all-correct GWTS system with `values_per_round` inputs per
/// process in each non-drain round.
pub fn gwts_sim(
    n: usize,
    f: usize,
    rounds: u64,
    values_per_round: u64,
    scheduler: Box<dyn Scheduler>,
) -> Simulation<GwtsMsg<u64>> {
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(scheduler);
    for i in 0..n {
        let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for r in 0..rounds.saturating_sub(2) {
            let vals = (0..values_per_round)
                .map(|k| (i as u64) * 1_000_000 + r * 1_000 + k)
                .collect();
            schedule.insert(r, vals);
        }
        b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
    }
    b.build()
}

/// Measurements from a GWTS stream run.
#[derive(Debug, Clone, Default)]
pub struct GwtsMeasurement {
    /// Total decisions performed by correct processes.
    pub decisions: u64,
    /// Messages per decision (system-wide).
    pub msgs_per_decision: f64,
    /// Bytes per decision.
    pub bytes_per_decision: f64,
    /// Max per-round refinement count observed.
    pub max_refinements: u64,
}

/// Runs an all-correct GWTS stream and measures per-decision costs.
pub fn measure_gwts(n: usize, f: usize, rounds: u64, values_per_round: u64) -> GwtsMeasurement {
    let mut sim = gwts_sim(
        n,
        f,
        rounds,
        values_per_round,
        Box::new(FifoScheduler::new()),
    );
    sim.run(u64::MAX / 2);
    let mut decisions = 0u64;
    let mut max_refinements = 0u64;
    for i in 0..n {
        let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
        decisions += p.decisions.len() as u64;
        max_refinements = max_refinements.max(p.refinements.values().copied().max().unwrap_or(0));
    }
    GwtsMeasurement {
        decisions,
        msgs_per_decision: sim.metrics().total_sent() as f64 / decisions.max(1) as f64,
        bytes_per_decision: sim.metrics().total_bytes() as f64 / decisions.max(1) as f64,
        max_refinements,
    }
}

/// Fits `y = c·x^k` through the first and last points and returns `k` —
/// the empirical growth exponent used by the shape checks.
pub fn growth_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert!(xs.len() >= 2 && xs.len() == ys.len());
    let (x0, y0) = (xs[0], ys[0]);
    let (x1, y1) = (xs[xs.len() - 1], ys[ys.len() - 1]);
    (y1 / y0).ln() / (x1 / x0).ln()
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join(" | ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wts_measurement_sane() {
        let m = measure_wts(4, 1, Box::new(FifoScheduler::new()));
        assert!(m.all_decided);
        assert!(m.max_depth <= 7);
        assert!(m.total_msgs > 0);
    }

    #[test]
    fn growth_exponent_detects_quadratic() {
        let xs = [4.0, 8.0, 16.0];
        let ys = [16.0, 64.0, 256.0];
        let k = growth_exponent(&xs, &ys);
        assert!((k - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gwts_measurement_counts_decisions() {
        let m = measure_gwts(4, 1, 3, 1);
        assert_eq!(m.decisions, 12); // 4 processes x 3 rounds
        assert!(m.msgs_per_decision > 0.0);
    }
}
