//! Adversarial runs of the generalized signature-based algorithm:
//! forged `decided` certificates and round-jumping must bounce off the
//! certificate validation and the `Safe_r` trust rule, and bogus delta
//! references must resync without stalling the round pipeline.

use bgla::core::gsbs::{DecidedCert, GsbsMsg, GsbsProcess, SignedAck};
use bgla::core::{spec, SystemConfig, ValueSet};
use bgla::crypto::Keypair;
use bgla::simnet::{Context, Process, RandomScheduler, SimulationBuilder};
use std::any::Any;
use std::collections::BTreeMap;

/// Broadcasts bogus `Decided` certificates: empty ack lists, acks signed
/// by itself thrice, and certs whose values don't match the digest the
/// acks signed.
struct CertForger;

impl Process<GsbsMsg<u64>> for CertForger {
    fn on_start(&mut self, ctx: &mut Context<GsbsMsg<u64>>) {
        let me = ctx.me;
        let kp = Keypair::for_process(me);
        let poison: ValueSet<u64> = [424_242u64].into_iter().collect();
        // 1. No acks at all.
        ctx.broadcast(GsbsMsg::Decided(DecidedCert {
            round: 0,
            values: poison.clone(),
            acks: vec![],
        }));
        // 2. Quorum of self-signed acks (duplicate signer).
        let digest = bgla::core::gsbs::digest_values(&poison);
        let ack = SignedAck::sign(me, 1, 0, digest, me, &kp);
        ctx.broadcast(GsbsMsg::Decided(DecidedCert {
            round: 0,
            values: poison.clone(),
            acks: vec![ack.clone(), ack.clone(), ack.clone()],
        }));
        // 3. Valid-looking ack but over a different digest.
        let other: ValueSet<u64> = [7u64].into_iter().collect();
        let wrong_digest = bgla::core::gsbs::digest_values(&other);
        let ack2 = SignedAck::sign(me, 1, 0, wrong_digest, me, &kp);
        ctx.broadcast(GsbsMsg::Decided(DecidedCert {
            round: 0,
            values: poison,
            acks: vec![ack2.clone(), ack2.clone(), ack2],
        }));
        // 4. Jump rounds with empty requests.
        for round in 0..8 {
            ctx.broadcast(GsbsMsg::AckReq {
                proposed: bgla::core::ProvenUpdate::Full(ValueSet::new()),
                ts: 500 + round,
                round,
            });
        }
    }
    fn on_message(&mut self, _f: usize, _m: GsbsMsg<u64>, _c: &mut Context<GsbsMsg<u64>>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn forged_certificates_are_rejected() {
    for seed in 0..5u64 {
        let (n, f, rounds) = (4usize, 1usize, 3u64);
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..3 {
            let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            schedule.insert(0, vec![100 + i as u64]);
            b = b.add(Box::new(GsbsProcess::new(i, config, schedule, rounds)));
        }
        b = b.add(Box::new(CertForger));
        let mut sim = b.build();
        let out = sim.run(50_000_000);
        assert!(out.quiescent, "seed {seed}");
        let mut seqs = Vec::new();
        for i in 0..3 {
            let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
            assert_eq!(
                p.decisions.len(),
                rounds as usize,
                "seed {seed} p{i}: liveness"
            );
            // The poison value from the forged certificates must never
            // appear in any decision.
            for d in &p.decisions {
                assert!(!d.contains(&424_242), "seed {seed}: forged cert accepted");
            }
            seqs.push(p.decisions.clone());
        }
        spec::check_local_stability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn bogus_delta_references_resync_without_stalling_rounds() {
    // The delta-gap schedule search, generalized: unresolvable
    // references and bases across a multi-round stream. Honest
    // processes must detect every gap, answer with resyncs, finish all
    // rounds, and never absorb the adversary's forged batches.
    use bgla::core::adversary::gsbs::BogusRefSender;
    for seed in 0..5u64 {
        let (n, f, rounds) = (4usize, 1usize, 3u64);
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..3 {
            let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            schedule.insert(0, vec![100 + i as u64]);
            schedule.insert(1, vec![200 + i as u64]);
            b = b.add(Box::new(GsbsProcess::new(i, config, schedule, rounds)));
        }
        b = b.add(Box::new(BogusRefSender::new(3, 31_337u64)));
        let mut sim = b.build();
        let out = sim.run(50_000_000);
        assert!(out.quiescent, "seed {seed}");
        let mut seqs = Vec::new();
        for i in 0..3 {
            let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
            assert_eq!(
                p.decisions.len(),
                rounds as usize,
                "seed {seed} p{i}: liveness despite delta gaps"
            );
            for d in &p.decisions {
                assert!(
                    !d.contains(&31_337),
                    "seed {seed}: a bogus-reference payload was accepted"
                );
            }
            seqs.push(p.decisions.clone());
        }
        spec::check_local_stability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // The fallback ran end-to-end.
        let resyncs = sim
            .metrics()
            .sent_by_kind
            .get("resync")
            .copied()
            .unwrap_or(0);
        assert!(resyncs > 0, "seed {seed}: no gap was ever detected");
        let adv = sim.process_as::<BogusRefSender<u64>>(3).unwrap();
        assert!(adv.resyncs_seen > 0, "seed {seed}: resyncs never arrived");
    }
}
