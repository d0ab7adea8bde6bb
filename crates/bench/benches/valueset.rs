//! Criterion bench for the `ValueSet` representation: the message
//! fan-out pattern every agreement algorithm executes on its hot path,
//! measured against a `BTreeSet` baseline, plus the delta-message
//! codec and an end-to-end GWTS stream.
//!
//! Run with `cargo bench --bench valueset`; set `CRITERION_JSON=path`
//! to dump the results (that is how `BENCH_valueset.json` at the repo
//! root is produced).

use bgla_core::valueset::{DeltaReceiver, DeltaSender};
use bgla_core::ValueSet;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeSet;

const SET_SIZE: u64 = 1_000;
const FANOUT: usize = 16;

/// The hot-path pattern: a proposer broadcasts its set to n processes
/// (clone per send) and every receiver joins it into its accumulated
/// state. `BTreeSet` pays a node-per-element deep clone per send.
fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("clone_join_fanout_1k_n16");

    let btree_src: BTreeSet<u64> = (0..SET_SIZE).collect();
    let btree_receivers: Vec<BTreeSet<u64>> = (0..FANOUT)
        .map(|i| (0..SET_SIZE / 2 + i as u64).collect())
        .collect();
    g.bench_with_input(BenchmarkId::from_parameter("btreeset"), &(), |b, _| {
        b.iter(|| {
            let mut total = 0usize;
            for recv in &btree_receivers {
                // send: deep clone; receive: join into local state.
                let msg = btree_src.clone();
                let mut local = recv.clone();
                local.extend(msg);
                total += local.len();
            }
            black_box(total)
        })
    });

    let vs_src: ValueSet<u64> = (0..SET_SIZE).collect();
    let vs_receivers: Vec<ValueSet<u64>> = (0..FANOUT)
        .map(|i| (0..SET_SIZE / 2 + i as u64).collect())
        .collect();
    g.bench_with_input(BenchmarkId::from_parameter("valueset"), &(), |b, _| {
        b.iter(|| {
            let mut total = 0usize;
            for recv in &vs_receivers {
                // send: O(1) refcount; receive: merge-walk join.
                let msg = vs_src.clone();
                let mut local = recv.clone();
                local.join_with(&msg);
                total += local.len();
            }
            black_box(total)
        })
    });
    g.finish();
}

/// Re-broadcast of an unchanged (already-superset) proposal — the most
/// common steady-state event. ValueSet detects `⊇` by merge-walk with
/// zero allocation; BTreeSet clones the whole message first.
fn bench_steady_state_redeliver(c: &mut Criterion) {
    let mut g = c.benchmark_group("redeliver_superset_1k");
    let btree_src: BTreeSet<u64> = (0..SET_SIZE).collect();
    g.bench_with_input(BenchmarkId::from_parameter("btreeset"), &(), |b, _| {
        let mut local = btree_src.clone();
        b.iter(|| {
            let msg = btree_src.clone();
            local.extend(msg);
            black_box(local.len())
        })
    });
    let vs_src: ValueSet<u64> = (0..SET_SIZE).collect();
    g.bench_with_input(BenchmarkId::from_parameter("valueset"), &(), |b, _| {
        let mut local = vs_src.clone();
        b.iter(|| {
            let msg = vs_src.clone();
            local.join_with(&msg);
            black_box(local.len())
        })
    });
    g.finish();
}

/// Delta codec round-trip: encode a refinement (base 1k values, 8
/// added) for 16 acceptors and resolve it at each.
fn bench_delta_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta_codec_1k_plus8_n16");
    let base: ValueSet<u64> = (0..SET_SIZE).collect();
    let refined: ValueSet<u64> = (0..SET_SIZE + 8).collect();
    let mut tx: DeltaSender<u64> = DeltaSender::new();
    let mut rx: DeltaReceiver<u64> = DeltaReceiver::new();
    tx.record_broadcast(0, &base);
    for to in 0..FANOUT {
        rx.record(0, 0, &base);
        tx.record_reply(to, 0);
    }
    tx.record_broadcast(1, &refined);
    g.bench_with_input(
        BenchmarkId::from_parameter("encode_resolve"),
        &(),
        |b, _| {
            b.iter(|| {
                let mut bytes = 0usize;
                for to in 0..FANOUT {
                    let upd = tx.encode_for(to, 1, &refined);
                    bytes += upd.wire_size();
                    let full = rx.resolve(0, &upd).expect("base held");
                    black_box(full.len());
                }
                black_box(bytes)
            })
        },
    );
    // The full-set strawman for the same traffic.
    g.bench_with_input(BenchmarkId::from_parameter("full_resend"), &(), |b, _| {
        b.iter(|| {
            let mut bytes = 0usize;
            for _to in 0..FANOUT {
                let msg = refined.clone();
                bytes += msg.wire_size();
                black_box(msg.len());
            }
            black_box(bytes)
        })
    });
    g.finish();
}

/// End-to-end: a 3-round GWTS stream (n = 7).
fn bench_gwts_stream(c: &mut Criterion) {
    use bgla_core::gwts::GwtsProcess;
    use bgla_core::SystemConfig;
    use bgla_simnet::{FifoScheduler, SimulationBuilder};
    use std::collections::BTreeMap;

    let mut g = c.benchmark_group("gwts_stream_n7_r3");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::from_parameter("deltas_on"), &(), |b, _| {
        b.iter(|| {
            let (n, f, rounds) = (7usize, 2usize, 3u64);
            let config = SystemConfig::new(n, f);
            let mut builder = SimulationBuilder::new().scheduler(Box::new(FifoScheduler::new()));
            for i in 0..n {
                let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                schedule.insert(0, (0..40).map(|k| (i as u64) * 1_000 + k).collect());
                builder = builder.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
            }
            let mut sim = builder.build();
            sim.run(u64::MAX / 2);
            sim.metrics().total_bytes()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fanout,
    bench_steady_state_redeliver,
    bench_delta_codec,
    bench_gwts_stream
);
criterion_main!(benches);
