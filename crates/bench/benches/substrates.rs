//! Criterion benches for the substrates: the from-scratch crypto stack,
//! the reliable broadcast engine, and lattice operations.

use bgla_crypto::{hmac_sha512, sha512, Keypair};
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

fn bench_hmac(c: &mut Criterion) {
    let data = vec![0u8; 256];
    c.bench_function("hmac_sha512_256B", |b| {
        b.iter(|| hmac_sha512(b"key", &data))
    });
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
    bench_hmac,
    bench_ed25519,
    bench_ed25519_batch,
    bench_rbcast,
    bench_lattice
);
criterion_main!(benches);
