//! The simulator's `bytes_per_op` is `Σ wire_size()`; a socket's is the
//! encoder's output. `wire_size()` is an encode into a counting writer,
//! which takes the cached lengths of sets and proofs instead of walking
//! them. This test holds the two together: every message a short run of
//! each algorithm delivers — WTS, GWTS, RSM, SbS and GSbS — is encoded
//! and must be exactly as long as its `wire_size()` says, so each cache
//! equals the encoding it stands for.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bgla_codec::{encode_payload, Wire};
use bgla_core::gsbs::{GsbsMsg, GsbsProcess};
use bgla_core::gwts::{AckRecord, GwtsMsg, GwtsProcess};
use bgla_core::sbs::{SbsMsg, SbsProcess};
use bgla_core::wts::{WtsMsg, WtsProcess};
use bgla_core::{SetUpdate, SystemConfig, ValueSet};
use bgla_rsm::{ClientOp, Op, Replica, RsmMsg, WorkloadClient};
use bgla_simnet::{Context, Process, ProcessId, RandomScheduler, SimulationBuilder, WireMessage};

/// Forwards to `inner`, measuring every message on its way in. A run to
/// quiescence delivers every message sent, so this sees them all.
struct Measured<M> {
    inner: Box<dyn Process<M>>,
    /// Messages measured.
    seen: Arc<AtomicUsize>,
}

impl<M: WireMessage> Process<M> for Measured<M> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M>) {
        let encoded = encode_payload(&msg).len();
        assert_eq!(encoded, msg.wire_size(), "{} from {from}", msg.kind());
        self.seen.fetch_add(1, Ordering::Relaxed);
        self.inner.on_message(from, msg, ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Runs `procs` to quiescence under a random schedule with every process
/// wrapped in [`Measured`]; returns how many messages were measured.
fn measure<M: WireMessage + 'static>(
    procs: impl Iterator<Item = Box<dyn Process<M>>>,
    seed: u64,
) -> usize {
    let seen = Arc::new(AtomicUsize::new(0));
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
    for inner in procs {
        let seen = Arc::clone(&seen);
        b = b.add(Box::new(Measured { inner, seen }));
    }
    assert!(b.build().run(50_000_000).quiescent);
    seen.load(Ordering::Relaxed)
}

/// Inputs that look like the benchmark's: full-width 64-bit words.
fn word(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63
}

fn schedule(i: usize, rounds: u64) -> BTreeMap<u64, Vec<u64>> {
    (0..rounds.saturating_sub(2))
        .map(|r| (r, vec![word(1000 * i as u64 + r)]))
        .collect()
}

#[test]
fn modeled_bytes_are_encoded_bytes() {
    let (n, f) = (4, 1);
    let config = SystemConfig::new(n, f);

    let wts = (0..n).map(|i| Box::new(WtsProcess::new(i, config, word(i as u64))) as _);
    assert!(measure::<WtsMsg<u64>>(wts, 1) > 100);

    // Enough rounds for ack tags and timestamps to outgrow one byte.
    let rounds = 40;
    let gwts =
        (0..n).map(|i| Box::new(GwtsProcess::new(i, config, schedule(i, rounds), rounds)) as _);
    assert!(measure::<GwtsMsg<u64>>(gwts, 2) > 10_000);

    let long = "k".repeat(200);
    let script = |c: u64| {
        vec![
            ClientOp::Update(Op::Add(word(c))),
            ClientOp::Update(Op::Put(format!("{long}{c}"))),
            ClientOp::Read,
            ClientOp::Update(Op::Add(c)),
        ]
    };
    let mut rsm: Vec<Box<dyn Process<RsmMsg>>> = Vec::new();
    for i in 0..n {
        rsm.push(Box::new(Replica::new(i, config, 40)));
    }
    for c in 1..=3 {
        rsm.push(Box::new(WorkloadClient::new(c, n, f, script(c))));
    }
    assert!(measure::<RsmMsg>(rsm.into_iter(), 3) > 1_000);

    let sbs = (0..n).map(|i| Box::new(SbsProcess::new(i, config, word(i as u64))) as _);
    assert!(measure::<SbsMsg<u64>>(sbs, 4) > 50);

    let gsbs = (0..n).map(|i| Box::new(GsbsProcess::new(i, config, schedule(i, 4), 4)) as _);
    assert!(measure::<GsbsMsg<u64>>(gsbs, 5) > 200);
}

/// The payload forms a run may not happen to produce: empty and long
/// sets, bases and counters on both sides of each varint length.
#[test]
fn every_update_and_ack_record_form_is_modeled_exactly() {
    let sets: Vec<ValueSet<u64>> = [0usize, 1, 127, 128, 300]
        .into_iter()
        .map(|len| (0..len as u64).map(word).collect())
        .collect();
    let counters = [
        0,
        1,
        127,
        128,
        16_383,
        16_384,
        u64::from(u32::MAX),
        u64::MAX,
    ];
    for set in &sets {
        assert_eq!(encode_payload(set).len(), set.wire_size());
        let full = SetUpdate::Full(set.clone());
        assert_eq!(encode_payload(&full).len(), full.wire_size());
        for at in counters {
            let delta = SetUpdate::Delta {
                base_ts: at,
                added: set.clone(),
            };
            assert_eq!(encode_payload(&delta).len(), delta.wire_size());
            for full in [true, false] {
                let rec = AckRecord {
                    round: at,
                    ts: at / 3,
                    destination: (at % 1000) as usize,
                    full,
                    accepted: set.clone(),
                };
                assert_eq!(encode_payload(&rec).len(), rec.wire_size());
            }
        }
    }
}
