//! Sharded experiment driver: runs independent simulations across all
//! cores.
//!
//! Every `exp_*` binary sweeps a grid of independent configurations
//! (seeds × system sizes × adversaries). Each cell is a self-contained
//! deterministic simulation, so the sweep parallelizes embarrassingly:
//! workers (scoped threads) pull cell indexes from a shared
//! counter, run them, and the driver reassembles results **in input
//! order** — the merged output is byte-identical to a sequential sweep
//! regardless of thread interleaving, because each cell's seeding is a
//! pure function of its index and no RNG state is shared across cells.
//!
//! Shard count defaults to the machine's available parallelism; set
//! `BGLA_SHARDS=1` to force a sequential run (e.g. to verify
//! determinism) or any other value to cap the worker pool.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count: `BGLA_SHARDS` if set (min 1), else available
/// parallelism.
pub fn shard_count() -> usize {
    if let Ok(v) = std::env::var("BGLA_SHARDS") {
        if let Ok(k) = v.trim().parse::<usize>() {
            return k.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|k| k.get())
        .unwrap_or(1)
}

/// Runs `job(0..count)` across `shards` worker threads and returns the
/// results in index order. The caller's closure must derive all
/// randomness from the index (deterministic per-cell seeding) for the
/// output to be schedule-independent — all workloads in this crate do.
pub fn run_indexed_with<T, F>(shards: usize, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if shards <= 1 || count <= 1 {
        return (0..count).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
    // `scope` joins every worker and re-raises a worker's panic.
    std::thread::scope(|s| {
        for _ in 0..shards.min(count) {
            let tx = tx.clone();
            let next = &next;
            let job = &job;
            s.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= count {
                    break;
                }
                let result = job(idx);
                let _ = tx.send((idx, result));
            });
        }
    });
    drop(tx);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(count);
    while let Ok(pair) = rx.recv() {
        collected.push(pair);
    }
    assert_eq!(collected.len(), count, "sharded run lost results");
    collected.sort_by_key(|&(idx, _)| idx);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// [`run_indexed_with`] at the default shard count.
pub fn run_indexed<T, F>(count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(shard_count(), count, job)
}

/// Runs one job per seed across all cores; results are in `seeds` order.
pub fn run_seeds<T, F>(seeds: &[u64], job: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    run_indexed(seeds.len(), |i| job(seeds[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgla_simnet::Metrics;

    #[test]
    fn sharded_results_are_in_input_order() {
        let out = run_indexed_with(4, 64, |i| i * 10);
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sharded_matches_sequential_byte_for_byte() {
        // A real measurement job: seeded WTS runs. The Debug rendering
        // captures every field, so string equality is byte-identity.
        let job = |seed: u64| {
            format!(
                "{:?}",
                crate::measure_wts(4, 1, Box::new(bgla_simnet::RandomScheduler::new(seed)))
            )
        };
        let sequential: Vec<String> = (0..8).map(|s| job(s as u64)).collect();
        let sharded = run_indexed_with(4, 8, |i| job(i as u64));
        assert_eq!(sequential, sharded);
    }

    #[test]
    fn merged_metrics_match_sequential_merge() {
        let job = |seed: u64| {
            let config = bgla_core::SystemConfig::new(4, 1);
            let mut b = bgla_simnet::SimulationBuilder::new()
                .scheduler(Box::new(bgla_simnet::RandomScheduler::new(seed)));
            for i in 0..4 {
                b = b.add(Box::new(bgla_core::wts::WtsProcess::new(
                    i, config, i as u64,
                )));
            }
            let mut sim = b.build();
            sim.run(u64::MAX / 2);
            sim.metrics().clone()
        };
        let merge = |runs: &[Metrics]| {
            let mut total = Metrics::default();
            for m in runs {
                total.merge(m);
            }
            total
        };
        let sequential = merge(&(0..6).map(|s| job(s as u64)).collect::<Vec<_>>());
        let sharded = merge(&run_indexed_with(3, 6, |i| job(i as u64)));
        assert_eq!(sequential, sharded);
    }
}
