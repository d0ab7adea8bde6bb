//! Per-delivery step cost of the simulation engine.
//!
//! The workload holds the in-flight population constant: a seeder
//! process floods `size` messages at start-up, and every delivery sends
//! exactly one message onward, so `iter(|| sim.step())` measures the
//! steady-state cost of one delivery at `size` messages in flight.
//! The committed `BENCH_simstep.json` holds the rows at 1k and 10k.
//!
//! Smoke mode (`SIMSTEP_SMOKE=1`, used by CI) shrinks sizes and sample
//! counts so the bench just proves it runs.

use bgla_simnet::{
    Context, DelayScheduler, FifoScheduler, Process, ProcessId, RandomScheduler, Scheduler,
    SimulationBuilder,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::any::Any;

const N: usize = 8;

/// Keeps the in-flight population constant: seeds `seed_count` messages
/// at start, then relays every delivery onward.
struct Churn {
    seed_count: usize,
}

impl Process<u64> for Churn {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        for i in 0..self.seed_count {
            ctx.send(i % ctx.n, i as u64);
        }
    }
    fn on_message(&mut self, _from: ProcessId, msg: u64, ctx: &mut Context<u64>) {
        ctx.send((ctx.me + 1) % ctx.n, msg);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn churn_procs(size: usize) -> Vec<Box<dyn Process<u64>>> {
    (0..N)
        .map(|i| {
            Box::new(Churn {
                seed_count: if i == 0 { size } else { 0 },
            }) as Box<dyn Process<u64>>
        })
        .collect()
}

fn schedulers(size: usize) -> Vec<(&'static str, Box<dyn Scheduler>)> {
    vec![
        ("fifo", Box::new(FifoScheduler::new())),
        ("random", Box::new(RandomScheduler::new(1))),
        ("delay", Box::new(DelayScheduler::new(1, size as u64))),
    ]
}

fn bench_simstep(c: &mut Criterion) {
    let smoke = std::env::var("SIMSTEP_SMOKE").is_ok();
    let sizes: &[usize] = if smoke { &[256] } else { &[1_000, 10_000] };

    let mut g = c.benchmark_group("simstep");
    g.sample_size(if smoke { 5 } else { 20 });
    g.throughput(Throughput::Elements(1));

    for &size in sizes {
        for (name, sched) in schedulers(size) {
            let mut sim = SimulationBuilder::new().scheduler(sched);
            for p in churn_procs(size) {
                sim = sim.add(p);
            }
            let mut sim = sim.build();
            sim.start();
            assert_eq!(sim.in_flight(), size);
            g.bench_with_input(
                BenchmarkId::new(format!("slab/{name}"), size),
                &size,
                |b, _| b.iter(|| sim.step()),
            );
        }
    }
    g.finish();
}

criterion_group!(simstep, bench_simstep);
criterion_main!(simstep);
