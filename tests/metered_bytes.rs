//! The simulator's `bytes_per_op` is `Σ wire_size()`; a socket's is the
//! encoder's output. `wire_size()` is an encode into a counting writer,
//! which takes the cached lengths of sets and proofs instead of walking
//! them. This test holds the two together: every message a short run of
//! each algorithm delivers — WTS, GWTS, RSM, SbS and GSbS — is encoded
//! and must be exactly as long as its `wire_size()` says, so each cache
//! equals the encoding it stands for. A GSbS run is also read for what
//! its signed payloads say twice: no signed batch an `ack_req` or `nack`
//! carries as a record is spelled out again in an echo, and no decided
//! certificate carries the digest its acks sign.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bgla_codec::{encode_payload, Wire, Writer};
use bgla_core::gsbs::{GsbsMsg, GsbsProcess, ProvenBatch, SignedBatch};
use bgla_core::gwts::{AckRecord, GwtsMsg, GwtsProcess, NamedSet};
use bgla_core::safetying::{SafeAck, SafeAckReply};
use bgla_core::sbs::{SbsMsg, SbsProcess};
use bgla_core::wts::{WtsMsg, WtsProcess};
use bgla_core::{Proof, ProofAck, ProvenUpdate, SetUpdate, SystemConfig, ValueSet};
use bgla_crypto::Signature;
use bgla_rsm::{ClientOp, Op, Replica, RsmMsg, WorkloadClient};
use bgla_simnet::{Context, Process, ProcessId, RandomScheduler, SimulationBuilder, WireMessage};

/// Forwards to `inner`, measuring every message on its way in and
/// reading it with `look`. A run to quiescence delivers every message
/// sent, so this sees them all.
struct Measured<M> {
    inner: Box<dyn Process<M>>,
    /// Checks a message and says how many of something it counted.
    look: fn(&M) -> usize,
    /// Messages measured, and the sum of what `look` counted.
    seen: Arc<[AtomicUsize; 2]>,
}

impl<M: WireMessage> Process<M> for Measured<M> {
    fn on_start(&mut self, ctx: &mut Context<M>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<M>) {
        let encoded = encode_payload(&msg).len();
        assert_eq!(encoded, msg.wire_size(), "{} from {from}", msg.kind());
        let [seen, counted] = &*self.seen;
        seen.fetch_add(1, Ordering::Relaxed);
        counted.fetch_add((self.look)(&msg), Ordering::Relaxed);
        self.inner.on_message(from, msg, ctx);
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Runs `procs` to quiescence under a random schedule with every process
/// wrapped in [`Measured`]; returns how many messages were measured and
/// what `look` counted in them.
fn measure_with<M: WireMessage + 'static>(
    procs: impl Iterator<Item = Box<dyn Process<M>>>,
    seed: u64,
    look: fn(&M) -> usize,
) -> [usize; 2] {
    let seen = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
    for inner in procs {
        let seen = Arc::clone(&seen);
        b = b.add(Box::new(Measured { inner, look, seen }));
    }
    assert!(b.build().run(50_000_000).quiescent);
    seen.each_ref().map(|n| n.load(Ordering::Relaxed))
}

/// [`measure_with`] counting nothing: how many messages were measured.
fn measure<M: WireMessage + 'static>(
    procs: impl Iterator<Item = Box<dyn Process<M>>>,
    seed: u64,
) -> usize {
    measure_with(procs, seed, |_| 0)[0]
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
fn metered_bytes_are_encoded_bytes() {
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

/// How often `needle` occurs in `haystack`.
fn occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .filter(|w| *w == needle)
        .count()
}

/// How many echo elements the distinct inline proofs of `update` hold
/// that are records of `update` too, after checking that each record's
/// encoding occurs in `msg`'s exactly once: an echoed record is named,
/// not spelled out again.
fn echoed_records(update: &ProvenUpdate<SafeAck<SignedBatch<u64>>>, msg: &[u8]) -> usize {
    let table = update.table();
    let records: Vec<&SignedBatch<u64>> = table.records().map(|(signed, _)| signed).collect();
    for signed in &records {
        assert_eq!(occurrences(msg, &encode_payload(*signed)), 1, "{signed:?}");
    }
    let mut proofs: Vec<&Proof<SafeAck<SignedBatch<u64>>>> = Vec::new();
    for proof in table.records().filter_map(|(_, proof)| proof) {
        if !proofs.contains(&proof) {
            proofs.push(proof);
        }
    }
    let mut echoed = 0;
    for proof in proofs {
        let mut echoes: Vec<&ValueSet<SignedBatch<u64>>> = Vec::new();
        for ack in proof.iter() {
            if !echoes.contains(&ack.echo()) {
                echoes.push(ack.echo());
            }
        }
        for echo in echoes {
            echoed += echo.iter().filter(|e| records.contains(e)).count();
        }
    }
    echoed
}

/// Checks what a GSbS message says once (see the module docs) and counts
/// the echoed records it names.
fn said_once(msg: &GsbsMsg<u64>) -> usize {
    match msg {
        GsbsMsg::AckReq { proposed: u, .. } | GsbsMsg::Nack { accepted: u, .. } => {
            echoed_records(u, &encode_payload(msg))
        }
        GsbsMsg::Decided(cert) => {
            // The layout with a digest per ack: the tag, the round, the
            // values, then the acks as a `GsbsMsg::Ack` writes each.
            let mut digests = Writer::counting();
            digests.u8(7);
            digests.var(cert.round);
            cert.values.encode(&mut digests);
            cert.acks.encode(&mut digests);
            assert_eq!(msg.wire_size() + 64 * cert.acks.len(), digests.len());
            0
        }
        _ => 0,
    }
}

/// An honest n = 7 GSbS run of 10 rounds says each signed batch of a
/// proposal or a nack once: an echo names the records of its own payload
/// by position. The layout that spelled them out again did so 7 342
/// times in this run of 56 inputs, and its certificates carried one
/// 64-byte digest per ack.
#[test]
fn gsbs_payloads_say_each_signed_batch_once() {
    let (n, f, rounds) = (7, 2, 10);
    let config = SystemConfig::new(n, f);
    let gsbs =
        (0..n).map(|i| Box::new(GsbsProcess::new(i, config, schedule(i, rounds), rounds)) as _);
    let [seen, echoed] = measure_with::<GsbsMsg<u64>>(gsbs, 6, said_once);
    let inputs = n * (rounds as usize - 2);
    assert!(seen > 1_000, "{seen} messages");
    assert!(echoed > 20 * inputs, "{echoed} echoed records named");
}

/// The payload forms a run may not happen to produce: empty and long
/// sets, bases and counters on both sides of each varint length.
#[test]
fn every_update_and_ack_record_form_is_metered_exactly() {
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
            // Named sets: no name, names on both sides of each varint
            // length, and as many names as values.
            let names = [
                vec![],
                vec![(0, at), ((at % 1000) as usize, at / 3), (127, 128)],
                (0..set.len()).map(|k| (k, at)).collect(),
            ];
            for names in names {
                let named = NamedSet::new(names.into_iter().collect(), set.clone());
                assert_eq!(encode_payload(&named).len(), named.wire_size());
                for update in [
                    SetUpdate::Full(named.clone()),
                    SetUpdate::Delta {
                        base_ts: at,
                        added: named.clone(),
                    },
                ] {
                    assert_eq!(encode_payload(&update).len(), update.wire_size());
                }
                for full in [true, false] {
                    let rec = AckRecord {
                        round: at,
                        ts: at / 3,
                        destination: (at % 1000) as usize,
                        full,
                        accepted: named.clone(),
                    };
                    assert_eq!(encode_payload(&rec).len(), rec.wire_size());
                }
            }
        }
    }

    // Proven payloads whose proofs echo their records: named by
    // positions on both sides of the one-byte varint boundary, beside
    // echoed batches that are no record.
    // Opaque signature bytes: nothing here is verified.
    let sig = |a: u64, b: u64| Signature {
        r: [a as u8; 32],
        s: [b as u8; 32],
    };
    let signed = |i: u64| SignedBatch {
        round: 1 + i / 100,
        batch: [word(i)].into_iter().collect(),
        signer: (i % 7) as usize,
        sig: sig(i, i >> 8),
    };
    let proof = |echo: ValueSet<SignedBatch<u64>>| {
        Proof::new(
            (0..5)
                .map(|signer| SafeAck {
                    rcvd: echo.clone(),
                    reply: SafeAckReply {
                        round: 1,
                        conflicts: vec![],
                        signer,
                        sig: sig(signer as u64, 9),
                    },
                })
                .collect(),
        )
    };
    for len in [0u64, 1, 127, 128, 300] {
        let every = proof((0..len).map(signed).collect());
        let some = proof((0..len + 2).filter(|i| i % 3 == 0).map(signed).collect());
        let records: ValueSet<ProvenBatch<u64>> = (0..len)
            .map(|i| ProvenBatch {
                signed: signed(i),
                proof: if i % 2 == 0 { &every } else { &some }.clone(),
            })
            .collect();
        let mut updates = vec![ProvenUpdate::Full(records.clone())];
        for at in counters {
            updates.push(ProvenUpdate::Delta {
                base_ts: at,
                new: records.clone(),
                refs: if at % 2 == 0 { vec![some.id()] } else { vec![] },
            });
        }
        for update in updates {
            let bytes = encode_payload(&update);
            assert_eq!(bytes.len(), update.wire_size(), "{len} records");
            let back: ProvenUpdate<SafeAck<SignedBatch<u64>>> =
                bgla_codec::decode_payload(&bytes).unwrap();
            assert_eq!(back.wire_size(), bytes.len());
        }
    }
}
