//! Verify-once pins for the proof-of-safety pipeline: a redelivered
//! proof — valid *or forged* — must cost real cryptographic work exactly
//! once per process, and a proof restored from a snapshot once more.
//! Asserted through the work counters on `CachedVerifier`
//! ([`bgla_crypto::VerifierStats`]). The same counters pin what an
//! honest GSbS run spends now that signed records are held until a
//! threshold's worth has arrived and verified in one batch
//! (`bgla_core::held`).

use bgla_core::gsbs::{
    DecidedCert, GSafeAck, GsbsMsg, GsbsProcess, ProvenBatch, SignedAck, SignedBatch,
};
use bgla_core::harness::gsbs_system;
use bgla_core::proof::Proof;
use bgla_core::provendelta::ProvenUpdate;
use bgla_core::sbs::{ProvenValue, SafeAckBody, SbsMsg, SbsProcess, SignedSafeAck, SignedValue};
use bgla_core::{SystemConfig, ValueSet};
use bgla_crypto::{digest, Keypair, VerifierStats};
use bgla_simnet::{Context, Process, RandomScheduler, SimulationBuilder};
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
        signed: sv,
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
        assert!(!p.proving().all_safe(&set), "forged proof must never pass");
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
    assert_eq!(
        stats.batched_signatures, 4,
        "every redelivery answered by the cached signature verdicts"
    );
}

#[test]
fn valid_proof_redelivery_verifies_once() {
    let mut p = SbsProcess::new(0, config(), 7u64);
    let pv = proven_value(42, 1, &[1, 2, 3]);
    let set: ValueSet<ProvenValue<u64>> = [pv].into_iter().collect();

    assert!(p.proving().all_safe(&set), "well-formed proof must pass");
    let stats = p.verifier_stats();
    // One batched check covers the proof's 3 acks and the echoed value
    // (whose membership certifies the attached value's signature).
    assert_eq!(
        stats,
        VerifierStats {
            single_verifications: 0,
            batch_verifications: 1,
            batched_signatures: 4,
        }
    );
    // Redeliveries add no cryptographic work at all.
    for _ in 0..9 {
        assert!(p.proving().all_safe(&set), "well-formed proof must pass");
    }
    assert_eq!(p.verifier_stats(), stats);
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
            signed: sv,
            proof: proof.clone(),
        })
        .collect();
    assert!(p.proving().all_safe(&set));
    let stats = p.verifier_stats();
    assert_eq!(
        (stats.batch_verifications, stats.batched_signatures),
        (1, 6),
        "one batch over the shared proof's 3 acks and 3 echoed values"
    );
    assert!(p.proving().all_safe(&set));
    assert_eq!(p.verifier_stats(), stats, "and no work on a later call");
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
    // acceptor must answer every reference from its resolver, which
    // holds the proof as verified: exactly one batched signature
    // verification, total.
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
            signed: sv,
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
}

#[test]
fn a_restored_proof_is_verified_once_more() {
    // An acceptor consumes one `Full` ack_req: one batch over the
    // proof's 3 acks and the echoed value, and the proof is retained.
    let mut p = SbsProcess::new(0, config(), 7u64);
    let set: ValueSet<ProvenValue<u64>> = [proven_value(42, 1, &[1, 2, 3])].into_iter().collect();
    let mut ctx = Context::for_embedding(0, 4, 0, 0);
    let proposed = ProvenUpdate::Full(set.clone());
    p.on_message(1, SbsMsg::AckReq { proposed, ts: 1 }, &mut ctx);
    assert!(matches!(
        ctx.take_outbox().as_slice(),
        [(1, SbsMsg::Ack { ts: 1, .. })]
    ));
    assert_eq!(p.verifier_stats().batch_verifications, 1);
    assert!(p.proving().all_safe(&set));
    assert_eq!(p.verifier_stats().batch_verifications, 1);

    // A restart keeps the proof but not the knowledge that it was
    // verified: the restored process checks it once, then never again.
    let mut q = SbsProcess::<u64>::from_snapshot(&p.snapshot_bytes()).unwrap();
    assert_eq!(q.verifier_stats(), VerifierStats::default());
    assert!(q.proving().all_safe(&set));
    let stats = q.verifier_stats();
    assert_eq!(stats.batch_verifications, 1, "restored, not yet verified");
    assert!(q.proving().all_safe(&set));
    assert_eq!(q.verifier_stats(), stats);
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
        signed: sb.clone(),
        proof: honest.clone(),
    }]
    .into_iter()
    .collect();
    let forged_set: ValueSet<ProvenBatch<u64>> = [ProvenBatch {
        signed: forged_sb,
        proof: forged,
    }]
    .into_iter()
    .collect();
    assert!(p.proving().all_safe(&honest_set), "honest proof must pass");
    assert!(
        !p.proving().all_safe(&forged_set),
        "forged echoed-content variant must be rejected, not answered \
         from the honest proof's cached verdict"
    );
    assert!(
        p.proving().all_safe(&honest_set),
        "the forged delivery must not poison the honest proof's verdict"
    );

    let mut q = GsbsProcess::new(0, config(), BTreeMap::new(), 1);
    assert!(
        !q.proving().all_safe(&forged_set),
        "forged-first must also reject"
    );
    assert!(
        q.proving().all_safe(&honest_set),
        "a forged-first delivery must not block the honest proof"
    );
}

/// Sends process 0 its `Decided` certificates, and nothing else.
struct CertReplayer(Vec<DecidedCert<u64>>);

impl Process<GsbsMsg<u64>> for CertReplayer {
    fn on_start(&mut self, ctx: &mut Context<GsbsMsg<u64>>) {
        for cert in &self.0 {
            ctx.send(0, GsbsMsg::Decided(cert.clone()));
        }
    }
    fn on_message(&mut self, _: usize, _: GsbsMsg<u64>, _: &mut Context<GsbsMsg<u64>>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn forged_certificate_redelivery_verifies_once() {
    // A round-0 certificate over a quorum of well-formed acks, one of
    // whose signatures is corrupted: only the signature check can reject
    // it, and no valid certificate for the round ever arrives.
    let values: ValueSet<u64> = [5u64].into_iter().collect();
    let digest = digest(&values);
    let mut acks: Vec<SignedAck> = (1..4)
        .map(|i| SignedAck::sign(1, 1, 0, digest, i, &Keypair::for_process(i)))
        .collect();
    acks[1].sig.s[0] ^= 0x40;
    let cert = DecidedCert {
        round: 0,
        values,
        acks,
    };
    const REDELIVERIES: usize = 10;
    let mut sim = SimulationBuilder::new()
        .add(Box::new(GsbsProcess::new(0, config(), BTreeMap::new(), 1)))
        .add(Box::new(CertReplayer(vec![cert; REDELIVERIES])))
        .add(Box::new(CertReplayer(vec![])))
        .add(Box::new(CertReplayer(vec![])))
        .build();
    assert!(sim.run(100_000).quiescent);
    let p = sim.process_as::<GsbsProcess<u64>>(0).unwrap();
    assert_eq!(p.safe_r, 0, "the forged certificate must not be trusted");
    // One batch over the three acks, one fallback over the same three,
    // then nine redeliveries answered from the cache.
    assert_eq!(
        p.verifier_stats(),
        VerifierStats {
            single_verifications: 3,
            batch_verifications: 1,
            batched_signatures: 3,
        }
    );
}

/// Rounds of the pinned honest GSbS runs: inputs in all but the last two,
/// two per process per round — the shape of the `sim_gsbs_n7` workload.
const ROUNDS: u64 = 10;

/// Crypto work of an honest `n = 7`, `f = 2` GSbS run under a random
/// schedule, summed over the processes, and the number of inputs.
fn honest_gsbs_n7(seed: u64) -> (VerifierStats, u64) {
    let schedule = |i: usize| -> BTreeMap<u64, Vec<u64>> {
        let base = i as u64 * 1_000;
        (0..ROUNDS - 2)
            .map(|r| (r, vec![base + 2 * r, base + 2 * r + 1]))
            .collect()
    };
    let (mut sim, config) =
        gsbs_system(7, 2, ROUNDS, schedule, Box::new(RandomScheduler::new(seed)));
    assert!(sim.run(50_000_000).quiescent, "seed {seed}");
    let mut total = VerifierStats::default();
    let mut inputs = 0;
    for i in 0..config.n {
        let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
        assert_eq!(p.decisions.len(), ROUNDS as usize, "seed {seed} p{i}");
        let s = p.verifier_stats();
        total.single_verifications += s.single_verifications;
        total.batch_verifications += s.batch_verifications;
        total.batched_signatures += s.batched_signatures;
        inputs += p.all_inputs.len() as u64;
    }
    (total, inputs)
}

#[test]
fn honest_gsbs_verifies_at_quorum() {
    // Per seed: the counts this run makes, and `(single verifications,
    // signatures in batches)` of the same run when every record was
    // checked alone on arrival and certificates bypassed the verifier
    // (their batches are included).
    let pins = [
        (3, (85, 622, 2502), (764, 1953)),
        (4, (112, 602, 2471), (836, 1884)),
        (5, (110, 599, 2456), (860, 1863)),
    ];
    for (seed, (singles, batches, batched), (singles_on_arrival, batched_on_arrival)) in pins {
        let (stats, inputs) = honest_gsbs_n7(seed);
        assert_eq!(inputs, 7 * 2 * (ROUNDS - 2));
        assert_eq!(
            stats,
            VerifierStats {
                single_verifications: singles,
                batch_verifications: batches,
                batched_signatures: batched,
            },
            "seed {seed}"
        );
        // The residue is lone records: an echoed `SafeReq` set with one
        // uncached record is cheaper to check alone than as a batch of one.
        assert!(5 * singles <= singles_on_arrival, "seed {seed}");
        // And no signature is checked twice: fewer checks in all.
        assert!(
            singles + batched <= singles_on_arrival + batched_on_arrival,
            "seed {seed}"
        );
    }
}
