//! Criterion benches for the substrates: the from-scratch crypto stack,
//! the reliable broadcast engine, and lattice operations.

use bgla_codec::{decode_payload, encode_payload};
use bgla_core::valueset::ValueSet;
use bgla_crypto::{sha512, Keypair};
use bgla_lattice::{JoinSemiLattice, SetLattice};
use bgla_rbcast::{RbMsg, RbcastEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_sha512(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha512");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| sha512(d))
        });
    }
    g.finish();
}

fn bench_ed25519(c: &mut Criterion) {
    let kp = Keypair::for_process(0);
    let msg = b"benchmark message for ed25519";
    let sig = kp.sign(msg);
    c.bench_function("ed25519_sign", |b| b.iter(|| kp.sign(msg)));
    c.bench_function("ed25519_verify", |b| {
        b.iter(|| assert!(kp.public.verify(msg, &sig)))
    });
    c.bench_function("ed25519_keygen", |b| {
        b.iter(|| Keypair::from_seed([7u8; 32]).public)
    });
}

fn bench_ed25519_batch(c: &mut Criterion) {
    use bgla_crypto::ed25519::verify_batch;
    let items: Vec<(bgla_crypto::PublicKey, Vec<u8>, bgla_crypto::Signature)> = (0..16)
        .map(|i| {
            let kp = Keypair::for_process(i);
            let msg = format!("batch item {i}").into_bytes();
            let sig = kp.sign(&msg);
            (kp.public, msg, sig)
        })
        .collect();
    let refs: Vec<(bgla_crypto::PublicKey, &[u8], bgla_crypto::Signature)> = items
        .iter()
        .map(|(p, m, s)| (*p, m.as_slice(), *s))
        .collect();
    c.bench_function("ed25519_verify_16_individually", |b| {
        b.iter(|| refs.iter().all(|(p, m, s)| p.verify(m, s)))
    });
    c.bench_function("ed25519_verify_16_batched", |b| {
        b.iter(|| verify_batch(&refs))
    });
}

fn bench_rbcast(c: &mut Criterion) {
    // Cost of driving one full broadcast instance through every
    // process's engine (message handling only, no network).
    let mut g = c.benchmark_group("rbcast_instance");
    for n in [4usize, 10, 31] {
        let f = (n - 1) / 3;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut engines: Vec<RbcastEngine<u64>> =
                    (0..n).map(|_| RbcastEngine::new(n, f)).collect();
                let mut queue: Vec<(usize, RbMsg<u64>)> = Vec::new();
                for m in engines[0].broadcast(0, 42) {
                    for _to in 0..n {
                        queue.push((0, m.clone()));
                    }
                }
                let mut delivered = 0usize;
                let mut idx = 0;
                // Round-robin the queue through all engines.
                while idx < queue.len() {
                    let (from, msg) = queue[idx].clone();
                    idx += 1;
                    for (me, e) in engines.iter_mut().enumerate() {
                        let _ = me;
                        let (out, dels) = e.on_message(from, msg.clone());
                        delivered += dels.len();
                        for m in out {
                            queue.push((me, m));
                            if queue.len() > 100_000 {
                                break;
                            }
                        }
                    }
                }
                delivered
            })
        });
    }
    g.finish();
}

/// One engine of an n=10, f=3 system taken through whole instances (init,
/// n echoes, n readies): nanoseconds per delivery. `payload(sender)` is
/// that sender's copy of the broadcast value.
fn rbcast_deliveries<T: Clone + Ord>(b: &mut criterion::Bencher, payload: impl Fn(usize) -> T) {
    let (n, f) = (10usize, 3usize);
    let mut engine: RbcastEngine<T> = RbcastEngine::new(n, f);
    let mut tag = 0u64;
    b.iter(|| {
        tag += 1;
        let init = RbMsg::Init {
            tag,
            value: payload(0),
        };
        let mut delivered = engine.on_message(0, init).1.len();
        for from in 0..n {
            let echo = RbMsg::Echo {
                origin: 0,
                tag,
                value: payload(from),
            };
            delivered += engine.on_message(from, echo).1.len();
        }
        for from in 0..n {
            let ready = RbMsg::Ready {
                origin: 0,
                tag,
                value: payload(from),
            };
            delivered += engine.on_message(from, ready).1.len();
        }
        assert_eq!(delivered, 1);
    });
}

fn bench_rbcast_payloads(c: &mut Criterion) {
    // The `u64` row is e2e's `rbcast.engine_ns_per_deliver` kernel; it
    // cannot show what telling payloads apart costs. The second row's
    // payload is a 720-value set every sender decoded for itself, as
    // over TCP: no two senders share an `Arc`, so equal payloads are
    // recognised by walking them.
    let mut g = c.benchmark_group("rbcast_engine_per_deliver");
    g.bench_function("u64", |b| rbcast_deliveries(b, |_| 42u64));
    let bytes = encode_payload(&(0..720u64).collect::<ValueSet<u64>>());
    let copies: Vec<ValueSet<u64>> = (0..10)
        .map(|_| decode_payload(&bytes).expect("own encoding"))
        .collect();
    g.bench_function("valueset720_unshared", |b| {
        rbcast_deliveries(b, |sender| copies[sender].clone())
    });
    g.finish();
}

fn bench_lattice(c: &mut Criterion) {
    let a: SetLattice<u64> = SetLattice::from_iter(0..1000);
    let b_: SetLattice<u64> = SetLattice::from_iter(500..1500);
    c.bench_function("set_lattice_join_1k", |bch| {
        bch.iter(|| a.joined(&b_).len())
    });
    c.bench_function("set_lattice_leq_1k", |bch| bch.iter(|| a.leq(&b_)));
}

criterion_group!(
    benches,
    bench_sha512,
    bench_ed25519,
    bench_ed25519_batch,
    bench_rbcast,
    bench_rbcast_payloads,
    bench_lattice
);
criterion_main!(benches);
