//! Verify-once pins for the proof-of-safety pipeline: a redelivered
//! proof — valid *or forged* — must cost real cryptographic work exactly
//! once per process, with every redelivery answered by the proof-verdict
//! cache. Asserted through the work counters on `CachedVerifier`
//! ([`bgla_crypto::VerifierStats`]) and the hit counters on the proof
//! cache.

use bgla_core::gsbs::{GSafeAck, GsbsProcess, ProvenBatch, SignedBatch};
use bgla_core::proof::Proof;
use bgla_core::provendelta::ProvenUpdate;
use bgla_core::sbs::{ProvenValue, SafeAckBody, SbsMsg, SbsProcess, SignedSafeAck, SignedValue};
use bgla_core::{SystemConfig, ValueSet};
use bgla_crypto::Keypair;
use bgla_simnet::{Context, Process, SimulationBuilder};
use std::any::Any;
use std::collections::BTreeMap;

/// n = 4, f = 1 → quorum = ⌊(4+1)/2⌋ + 1 = 3.
fn config() -> SystemConfig {
    SystemConfig::new(4, 1)
}

/// A structurally impeccable proven value: `signers` distinct acceptors
/// each sign an ack echoing the value, no conflicts.
fn proven_value(value: u64, proposer: usize, signers: &[usize]) -> ProvenValue<u64> {
    let sv = SignedValue::sign(value, proposer, &Keypair::for_process(proposer));
    let rcvd: ValueSet<SignedValue<u64>> = [sv.clone()].into_iter().collect();
    let acks: Vec<SignedSafeAck<u64>> = signers
        .iter()
        .map(|&s| {
            SignedSafeAck::sign(
                SafeAckBody {
                    rcvd: rcvd.clone(),
                    conflicts: vec![],
                },
                s,
                &Keypair::for_process(s),
            )
        })
        .collect();
    ProvenValue {
        sv,
        proof: Proof::new(acks),
    }
}

#[test]
fn forged_proof_redelivery_verifies_once() {
    let mut p = SbsProcess::new(0, config(), 7u64);
    // Structure passes every cheap check; one ack's signature is
    // corrupted, so only the batched signature verification can (and
    // must) reject it.
    let mut pv = proven_value(42, 1, &[1, 2, 3]);
    let mut acks = pv.proof.as_slice().to_vec();
    acks[1].sig.s[0] ^= 0x40;
    pv.proof = Proof::new(acks);
    let set: ValueSet<ProvenValue<u64>> = [pv].into_iter().collect();

    const REDELIVERIES: usize = 10;
    for _ in 0..REDELIVERIES {
        assert!(!p.all_safe(&set), "forged proof must never pass");
    }
    let stats = p.verifier_stats();
    assert_eq!(
        stats.batch_verifications, 1,
        "the forged proof must be batch-verified exactly once"
    );
    assert_eq!(
        stats.single_verifications, 4,
        "one culprit-finding fallback over the 3 acks + 1 echoed value, never repeated"
    );
    let (hits, misses) = p.proof_cache_stats();
    assert_eq!(misses, 1, "one cold lookup");
    assert_eq!(
        hits,
        (REDELIVERIES - 1) as u64,
        "every redelivery answered by the interned negative verdict"
    );
}

#[test]
fn valid_proof_redelivery_verifies_once() {
    let mut p = SbsProcess::new(0, config(), 7u64);
    let pv = proven_value(42, 1, &[1, 2, 3]);
    let set: ValueSet<ProvenValue<u64>> = [pv].into_iter().collect();

    for _ in 0..10 {
        assert!(p.all_safe(&set), "well-formed proof must pass");
    }
    let stats = p.verifier_stats();
    // One batched check covers the proof's 3 acks and the echoed value
    // (whose membership certifies the attached value's signature).
    // Redeliveries add no cryptographic work at all.
    assert_eq!(stats.batch_verifications, 1);
    assert_eq!(stats.single_verifications, 0);
    let (hits, misses) = p.proof_cache_stats();
    assert_eq!((hits, misses), (9, 1));
}

#[test]
fn same_proof_shared_by_many_values_checks_once_per_call() {
    let mut p = SbsProcess::new(0, config(), 7u64);
    // Three values certified by one safetying exchange: one shared proof.
    let svs: Vec<SignedValue<u64>> = (0..3)
        .map(|i| SignedValue::sign(100 + i as u64, 1 + i, &Keypair::for_process(1 + i)))
        .collect();
    let rcvd: ValueSet<SignedValue<u64>> = svs.iter().cloned().collect();
    let acks: Vec<SignedSafeAck<u64>> = [1usize, 2, 3]
        .iter()
        .map(|&s| {
            SignedSafeAck::sign(
                SafeAckBody {
                    rcvd: rcvd.clone(),
                    conflicts: vec![],
                },
                s,
                &Keypair::for_process(s),
            )
        })
        .collect();
    let proof = Proof::new(acks);
    let set: ValueSet<ProvenValue<u64>> = svs
        .into_iter()
        .map(|sv| ProvenValue {
            sv,
            proof: proof.clone(),
        })
        .collect();
    assert!(p.all_safe(&set));
    let (_, misses) = p.proof_cache_stats();
    assert_eq!(misses, 1, "shared proof looked up once, not per value");
    assert!(p.all_safe(&set));
    let (hits, _) = p.proof_cache_stats();
    assert_eq!(hits, 1, "and once per later call");
}

/// Scripted proposer: ships one `Full` ack_req whose proof covers
/// eleven values, then — each time the acceptor acks — a `Delta` adding
/// the next value with the shared proof *referenced by id*, never
/// re-shipped.
struct RefFeeder {
    values: Vec<ProvenValue<u64>>,
    sent: usize,
}

impl Process<SbsMsg<u64>> for RefFeeder {
    fn on_start(&mut self, ctx: &mut Context<SbsMsg<u64>>) {
        let first: ValueSet<ProvenValue<u64>> = [self.values[0].clone()].into_iter().collect();
        self.sent = 1;
        ctx.send(
            0,
            SbsMsg::AckReq {
                proposed: ProvenUpdate::Full(first),
                ts: 1,
            },
        );
    }
    fn on_message(&mut self, _from: usize, msg: SbsMsg<u64>, ctx: &mut Context<SbsMsg<u64>>) {
        if let SbsMsg::Ack { ts, .. } = msg {
            if ts == self.sent as u64 && self.sent < self.values.len() {
                let pv = self.values[self.sent].clone();
                let refs = vec![pv.proof.id()];
                let new: ValueSet<ProvenValue<u64>> = [pv].into_iter().collect();
                self.sent += 1;
                ctx.send(
                    0,
                    SbsMsg::AckReq {
                        proposed: ProvenUpdate::Delta {
                            base_ts: ts,
                            new,
                            refs,
                        },
                        ts: ts + 1,
                    },
                );
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn proof_referenced_in_ten_deltas_still_verifies_once() {
    // One safetying exchange certifies eleven values. The proof travels
    // once (inside the first Full ack_req); the ten follow-up proposals
    // each add one more covered value and name the proof by id. The
    // acceptor must answer every reference from its resolver and its
    // verdict cache: exactly one batched signature verification, total.
    const DELTAS: usize = 10;
    let svs: Vec<SignedValue<u64>> = (0..=DELTAS)
        .map(|i| SignedValue::sign(100 + i as u64, 1, &Keypair::for_process(1)))
        .collect();
    let rcvd: ValueSet<SignedValue<u64>> = svs.iter().cloned().collect();
    let acks: Vec<SignedSafeAck<u64>> = [1usize, 2, 3]
        .iter()
        .map(|&s| {
            SignedSafeAck::sign(
                SafeAckBody {
                    rcvd: rcvd.clone(),
                    conflicts: vec![],
                },
                s,
                &Keypair::for_process(s),
            )
        })
        .collect();
    let proof = Proof::new(acks);
    let values: Vec<ProvenValue<u64>> = svs
        .into_iter()
        .map(|sv| ProvenValue {
            sv,
            proof: proof.clone(),
        })
        .collect();

    let mut sim = SimulationBuilder::new()
        .add(Box::new(SbsProcess::new(0, config(), 7u64)))
        .add(Box::new(RefFeeder { values, sent: 0 }))
        .build();
    assert!(sim.run(100_000).quiescent);

    let feeder = sim.process_as::<RefFeeder>(1).unwrap();
    assert_eq!(feeder.sent, DELTAS + 1, "all ten deltas were consumed");
    let p = sim.process_as::<SbsProcess<u64>>(0).unwrap();
    assert_eq!(
        p.verifier_stats().batch_verifications,
        1,
        "one Full delivery + ten references must cost one batched check"
    );
    // No scalar check at all: the reference pipeline needs none, and
    // p0's own self-delivered Init is answered from the verdict it
    // recorded when it signed.
    assert_eq!(p.verifier_stats().single_verifications, 0);
    let (hits, misses) = p.proof_cache_stats();
    assert_eq!(misses, 1, "one cold verdict lookup");
    assert_eq!(
        hits, DELTAS as u64,
        "every delta's AllSafe answered from the interned verdict"
    );
}

#[test]
fn gsbs_proof_id_binds_echoed_batch_content() {
    // The proofstore contract: a cached verdict may only be reused if
    // the ProofId binds everything the verdict depends on. proof_valid
    // batch-verifies every batch echoed in every ack's rcvd set, so two
    // proofs differing *only* in echoed-batch content (same signature
    // bytes everywhere) must get distinct ids — otherwise a Byzantine
    // peer could swap batch contents under an honest proof's cached
    // `true`, or poison an honest proof's id with a cached `false`.
    let batch: ValueSet<u64> = [1u64, 2].into_iter().collect();
    let sb = SignedBatch::sign(0, batch, 1, &Keypair::for_process(1));
    // Forged record: contents swapped under sb's signature bytes.
    let mut forged_sb = sb.clone();
    forged_sb.batch = [1u64, 99].into_iter().collect();

    let rcvd: ValueSet<SignedBatch<u64>> = [sb.clone()].into_iter().collect();
    let acks: Vec<GSafeAck<u64>> = [1usize, 2, 3]
        .iter()
        .map(|&s| GSafeAck::sign(0, rcvd.clone(), vec![], s, &Keypair::for_process(s)))
        .collect();
    let honest = Proof::new(acks.clone());

    // Byzantine re-wrap: every ack keeps its signature bytes but echoes
    // the forged record instead.
    let forged_rcvd: ValueSet<SignedBatch<u64>> = [forged_sb.clone()].into_iter().collect();
    let forged_acks: Vec<GSafeAck<u64>> = acks
        .into_iter()
        .map(|mut a| {
            a.rcvd = forged_rcvd.clone();
            a
        })
        .collect();
    let forged = Proof::new(forged_acks);
    assert_ne!(
        honest.id(),
        forged.id(),
        "ProofId must bind echoed-batch content, not just signature bytes"
    );

    // End to end, both delivery orders: the honest proof's cached
    // verdict must not leak to the forged variant, and vice versa.
    let mut p = GsbsProcess::new(0, config(), BTreeMap::new(), 1);
    let honest_set: ValueSet<ProvenBatch<u64>> = [ProvenBatch {
        sb: sb.clone(),
        proof: honest.clone(),
    }]
    .into_iter()
    .collect();
    let forged_set: ValueSet<ProvenBatch<u64>> = [ProvenBatch {
        sb: forged_sb,
        proof: forged,
    }]
    .into_iter()
    .collect();
    assert!(p.all_safe(&honest_set), "honest proof must pass");
    assert!(
        !p.all_safe(&forged_set),
        "forged echoed-content variant must be rejected, not answered \
         from the honest proof's cached verdict"
    );
    assert!(
        p.all_safe(&honest_set),
        "the forged delivery must not poison the honest proof's verdict"
    );

    let mut q = GsbsProcess::new(0, config(), BTreeMap::new(), 1);
    assert!(!q.all_safe(&forged_set), "forged-first must also reject");
    assert!(
        q.all_safe(&honest_set),
        "a forged-first delivery must not block the honest proof"
    );
}
