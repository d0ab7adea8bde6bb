//! Adversarial runs of the generalized signature-based algorithm:
//! forged `decided` certificates and round-jumping must bounce off the
//! certificate validation and the `Safe_r` trust rule, bogus delta
//! references must resync without stalling the round pipeline, and
//! records with forged signatures — safe-acks signed over another set
//! than the one requested among them — must be dropped by the batch that
//! checks the held records at each threshold.

use bgla::core::adversary::gsbs::{SigForger, WrongEcho};
use bgla::core::gsbs::{
    DecidedCert, GSafeAck, GsbsMsg, GsbsProcess, GsbsState, SignedAck, SignedBatch,
};
use bgla::core::{spec, ProofAck, SystemConfig, ValueSet};
use bgla::crypto::{digest, Keypair, VerifierStats};
use bgla::simnet::{Context, Process, RandomScheduler, Simulation, SimulationBuilder, TraceEvent};
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
        let poison_digest = digest(&poison);
        let ack = SignedAck::sign(me, 1, 0, poison_digest, me, &kp);
        ctx.broadcast(GsbsMsg::Decided(DecidedCert {
            round: 0,
            values: poison.clone(),
            acks: vec![ack.clone(), ack.clone(), ack.clone()],
        }));
        // 3. Valid-looking ack but over a different digest.
        let other: ValueSet<u64> = [7u64].into_iter().collect();
        let wrong_digest = digest(&other);
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

/// Id of the signature forger in the runs below (`n = 4`, `f = 1`).
const FORGER: usize = 3;

/// The value the forger's batches carry.
const POISON: u64 = 66_666;

/// Rounds of the stepped runs below.
const ROUNDS: u64 = 3;

/// Runs three correct processes and `adversary`, process [`FORGER`],
/// under the random schedule of `seed` one delivery at a time. After
/// each delivery it checks that no record signed by the adversary joined
/// a safety set or was counted as a safe-ack or an ack, and reports the
/// delivery to `seen` with the phase its receiver was in before it. At
/// quiescence every correct process has decided every round without the
/// poison value, and the decisions satisfy the spec.
fn stepped(
    seed: u64,
    adversary: Box<dyn Process<GsbsMsg<u64>>>,
    mut seen: impl FnMut(&TraceEvent, Option<GsbsState>),
) {
    let config = SystemConfig::new(4, 1);
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
    for i in 0..FORGER {
        let mut schedule: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        schedule.insert(0, vec![100 + i as u64]);
        schedule.insert(1, vec![200 + i as u64]);
        b = b.add(Box::new(GsbsProcess::new(i, config, schedule, ROUNDS)));
    }
    let mut sim: Simulation<GsbsMsg<u64>> = b.add(adversary).build();
    sim.enable_trace();
    let mut steps = 0u64;
    loop {
        let before: Vec<GsbsState> = (0..FORGER)
            .map(|i| sim.process_as::<GsbsProcess<u64>>(i).unwrap().state())
            .collect();
        if !sim.step() {
            break;
        }
        steps += 1;
        assert!(steps < 1_000_000, "seed {seed}: no quiescence");
        let last = sim.trace().unwrap().events().last().unwrap();
        seen(last, before.get(last.to).copied());
        for i in 0..FORGER {
            let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
            let forged_init = (0..ROUNDS)
                .filter_map(|r| p.safety_set(r))
                .any(|set| set.iter().any(|sb| sb.signer == FORGER));
            assert!(!forged_init, "seed {seed} p{i}: a forged init joined");
            assert!(
                p.safe_acks().iter().all(|a| a.signer != FORGER),
                "seed {seed} p{i}: a forged safe-ack counted"
            );
            assert!(
                p.ack_certs().iter().all(|a| a.signer != FORGER),
                "seed {seed} p{i}: a forged ack counted"
            );
        }
    }
    let mut seqs = Vec::new();
    for i in 0..FORGER {
        let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
        assert_eq!(p.decisions.len(), ROUNDS as usize, "seed {seed} p{i}");
        assert!(
            p.decisions.iter().all(|d| !d.contains(&POISON)),
            "seed {seed} p{i}: a forged batch was decided"
        );
        seqs.push(p.decisions.clone());
    }
    spec::check_local_stability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    spec::check_global_comparability(&seqs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
}

#[test]
fn forged_signatures_never_count() {
    // Structurally valid `Init`s, safe-acks and acks with bad signatures
    // are held like any others until a threshold's worth has arrived;
    // the batch that checks them must drop exactly those, at every
    // delivery, without costing the honest processes a round.

    // Forged records that reached a process in the phase that waits for
    // them, by kind: each kind must have been seen.
    let mut reached: BTreeMap<&str, usize> = BTreeMap::new();
    for seed in 0..5u64 {
        stepped(
            seed,
            Box::new(SigForger::new(FORGER, POISON)),
            |last, before| {
                let waiting = match before {
                    Some(GsbsState::Init) => "init",
                    Some(GsbsState::Safetying) => "safe_ack",
                    Some(GsbsState::Proposing) => "ack",
                    _ => "",
                };
                if last.from == FORGER && last.kind == waiting {
                    *reached.entry(waiting).or_default() += 1;
                }
            },
        );
    }
    assert_eq!(
        reached.keys().copied().collect::<Vec<_>>(),
        ["ack", "init", "safe_ack"],
        "some kind of forged record never reached the phase waiting for it: {reached:?}"
    );
}

#[test]
fn a_safe_ack_over_another_set_never_counts() {
    // The reply carries no echo: the proposer reads it as signed over its
    // own request, so an acceptor that signed another set is caught by
    // the signature check at quorum, like a forger.
    let mut reached = 0;
    for seed in 0..5u64 {
        stepped(seed, Box::new(WrongEcho { me: FORGER }), |last, before| {
            if last.from == FORGER && last.kind == "safe_ack" {
                reached += usize::from(before == Some(GsbsState::Safetying));
            }
        });
    }
    assert!(reached > 0, "no such safe-ack reached a safetying process");
}

/// Hands `msg` from `from` to `p`, process `me` of four, and returns
/// what it sent.
fn deliver<M, P: Process<M>>(p: &mut P, me: usize, from: usize, msg: M) -> Vec<(usize, M)> {
    let mut ctx = Context::for_embedding(me, 4, 0, 0);
    p.on_message(from, msg, &mut ctx);
    ctx.take_outbox()
}

/// What `sent` holds for process 0.
fn to_p0<M>(sent: Vec<(usize, M)>) -> Vec<M> {
    sent.into_iter()
        .filter(|(to, _)| *to == 0)
        .map(|(_, m)| m)
        .collect()
}

/// Delivers each of `msgs` from `from` to process 0, keeping what it
/// sends itself.
fn feed(p0: &mut GsbsProcess<u64>, from: usize, msgs: Vec<GsbsMsg<u64>>) -> Vec<GsbsMsg<u64>> {
    msgs.into_iter()
        .flat_map(|m| to_p0(deliver(p0, 0, from, m)))
        .collect()
}

fn stats(single: u64, batch: u64, batched: u64) -> VerifierStats {
    VerifierStats {
        single_verifications: single,
        batch_verifications: batch,
        batched_signatures: batched,
    }
}

#[test]
fn each_forged_record_is_verified_once() {
    // One correct process through one round, deliveries chosen by hand:
    // at each threshold the forger's record (sent twice, as the forger
    // does) is held with one genuine record, the batch fails, the
    // fallback drops the forged record alone, its redeliveries are
    // answered from the cache, and the last genuine record completes the
    // threshold by itself.
    let config = SystemConfig::new(4, 1);
    let batch = |i: usize| -> ValueSet<u64> { [100 + i as u64].into_iter().collect() };
    let mut schedule = BTreeMap::new();
    schedule.insert(0, vec![100]);
    let mut p0 = GsbsProcess::new(0, config, schedule, 1);
    let mut forger = SigForger::new(FORGER, POISON);
    let mut ctx = Context::for_embedding(0, 4, 0, 0);
    p0.on_start(&mut ctx);
    let own = to_p0(ctx.take_outbox());
    let mut ctx = Context::for_embedding(FORGER, 4, 0, 0);
    forger.on_start(&mut ctx);
    let forged_inits: Vec<_> = to_p0(ctx.take_outbox())
        .into_iter()
        .filter(|m| matches!(m, GsbsMsg::Init(sb) if sb.round == 0))
        .collect();
    assert_eq!(forged_inits.len(), 2);
    let init =
        |i: usize| GsbsMsg::Init(SignedBatch::sign(0, batch(i), i, &Keypair::for_process(i)));

    // Disclosure: own (already in), forged ×2, p1 → one failed batch of
    // two and its fallback; forged ×2 again → nothing; p2 → one single.
    assert!(feed(&mut p0, 0, own).is_empty());
    feed(&mut p0, FORGER, forged_inits.clone());
    assert_eq!(p0.verifier_stats(), stats(0, 0, 0));
    feed(&mut p0, 1, vec![init(1)]);
    assert_eq!(p0.verifier_stats(), stats(2, 1, 2));
    feed(&mut p0, FORGER, forged_inits);
    assert_eq!(p0.verifier_stats(), stats(2, 1, 2));
    let safe_req = feed(&mut p0, 2, vec![init(2)]);
    assert_eq!(p0.verifier_stats(), stats(3, 1, 2));
    assert_eq!(p0.state(), GsbsState::Safetying);
    let set = p0.safety_set(0).unwrap().clone();
    assert_eq!(set.len(), 3);
    assert!(set.iter().all(|sb| sb.signer != FORGER));

    // Safetying: the same shape with the safe-acks; p0's own is answered
    // from the verdict it recorded when it signed.
    let safe_req = safe_req.into_iter().next().expect("p0 asks itself");
    let forged_safe_acks = to_p0(deliver(&mut forger, FORGER, 0, safe_req.clone()));
    assert_eq!(forged_safe_acks.len(), 2);
    let own_safe_ack = feed(&mut p0, 0, vec![safe_req]);
    let safe_ack = |i: usize| {
        GsbsMsg::SafeAck(
            GSafeAck::sign(0, set.clone(), vec![], i, &Keypair::for_process(i)).reply(),
        )
    };
    feed(&mut p0, FORGER, forged_safe_acks.clone());
    feed(&mut p0, 0, own_safe_ack);
    assert_eq!(p0.verifier_stats(), stats(3, 1, 2));
    feed(&mut p0, 1, vec![safe_ack(1)]);
    assert_eq!(p0.verifier_stats(), stats(5, 2, 4));
    feed(&mut p0, FORGER, forged_safe_acks);
    assert_eq!(p0.verifier_stats(), stats(5, 2, 4));
    let ack_reqs = feed(&mut p0, 2, vec![safe_ack(2)]);
    assert_eq!(p0.verifier_stats(), stats(6, 2, 4));
    assert_eq!(p0.state(), GsbsState::Proposing);
    assert_eq!(p0.safe_acks().len(), 3);
    assert!(p0.safe_acks().iter().all(|a| a.signer != FORGER));

    // Proposing: the acks. p0 acks its own proposal without new work —
    // every signature in its proof is cached.
    let ack_req = ack_reqs.into_iter().next().expect("p0 proposes to itself");
    let forged_acks = to_p0(deliver(&mut forger, FORGER, 0, ack_req.clone()));
    assert_eq!(forged_acks.len(), 2);
    let own_ack = feed(&mut p0, 0, vec![ack_req]);
    let values: ValueSet<u64> = (0..3).map(|i| 100 + i).collect();
    let digest = digest(&values);
    let ack = |i: usize| {
        GsbsMsg::Ack(SignedAck::sign(
            0,
            1,
            0,
            digest,
            i,
            &Keypair::for_process(i),
        ))
    };
    feed(&mut p0, FORGER, forged_acks.clone());
    feed(&mut p0, 0, own_ack);
    assert_eq!(p0.verifier_stats(), stats(6, 2, 4));
    feed(&mut p0, 1, vec![ack(1)]);
    assert_eq!(p0.verifier_stats(), stats(8, 3, 6));
    feed(&mut p0, FORGER, forged_acks);
    assert_eq!(p0.verifier_stats(), stats(8, 3, 6));
    feed(&mut p0, 2, vec![ack(2)]);
    assert_eq!(p0.verifier_stats(), stats(9, 3, 6));
    assert_eq!(p0.decisions, vec![values]);
    assert!(p0.ack_certs().iter().all(|a| a.signer != FORGER));
}

#[test]
fn each_safe_ack_over_another_set_is_verified_once() {
    // One correct process through its safetying, by hand: the safe-ack
    // signed over another set (sent twice, as the adversary does) is held
    // with one genuine safe-ack, the batch fails, the fallback drops it
    // alone, its redeliveries are answered from the cache, and the last
    // genuine safe-ack completes the quorum by itself.
    let config = SystemConfig::new(4, 1);
    let batch = |i: usize| -> ValueSet<u64> { [100 + i as u64].into_iter().collect() };
    let mut schedule = BTreeMap::new();
    schedule.insert(0, vec![100]);
    let mut p0 = GsbsProcess::new(0, config, schedule, 1);
    let mut ctx = Context::for_embedding(0, 4, 0, 0);
    p0.on_start(&mut ctx);
    let init =
        |i: usize| GsbsMsg::Init(SignedBatch::sign(0, batch(i), i, &Keypair::for_process(i)));
    feed(&mut p0, 1, vec![init(1)]);
    let safe_req = feed(&mut p0, 2, vec![init(2)]);
    assert_eq!(p0.state(), GsbsState::Safetying);
    assert_eq!(p0.verifier_stats(), stats(0, 1, 2));
    let set = p0.safety_set(0).unwrap().clone();

    let safe_req = safe_req.into_iter().next().expect("p0 asks itself");
    let mut adversary = WrongEcho { me: FORGER };
    let wrong = to_p0(deliver(&mut adversary, FORGER, 0, safe_req.clone()));
    assert_eq!(wrong.len(), 2);
    let own_safe_ack = feed(&mut p0, 0, vec![safe_req]);
    let safe_ack = |i: usize| {
        GsbsMsg::SafeAck(
            GSafeAck::sign(0, set.clone(), vec![], i, &Keypair::for_process(i)).reply(),
        )
    };
    feed(&mut p0, FORGER, wrong.clone());
    feed(&mut p0, 0, own_safe_ack);
    assert_eq!(p0.verifier_stats(), stats(0, 1, 2));
    feed(&mut p0, 1, vec![safe_ack(1)]);
    assert_eq!(p0.verifier_stats(), stats(2, 2, 4));
    assert_eq!(p0.state(), GsbsState::Safetying);
    feed(&mut p0, FORGER, wrong);
    assert_eq!(p0.verifier_stats(), stats(2, 2, 4));
    feed(&mut p0, 2, vec![safe_ack(2)]);
    assert_eq!(p0.verifier_stats(), stats(3, 2, 4));
    assert_eq!(p0.state(), GsbsState::Proposing);
    assert_eq!(p0.safe_acks().len(), 3);
    assert!(p0.safe_acks().iter().all(|a| a.signer != FORGER));
}
