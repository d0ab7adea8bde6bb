//! Adversarial end-to-end runs of the signature-based algorithm:
//! conflict-signing, proof forgery, forged signatures, safe-acks signed
//! over another set than the one requested, bogus delta references and
//! silence, across random schedules.

use bgla::core::adversary::sbs::{
    BogusRefSender, ConflictSigner, ProofForger, SigForger, SilentS, WrongEcho,
};
use bgla::core::sbs::{SafeAckBody, SbsMsg, SbsProcess, SbsState, SignedSafeAck, SignedValue};
use bgla::core::{spec, ProofAck, SystemConfig};
use bgla::core::{ProvenUpdate, ValueSet};
use bgla::crypto::{Keypair, VerifierStats};
use bgla::simnet::{Context, Process, RandomScheduler, Simulation, SimulationBuilder};
use std::any::Any;

type Msg = bgla::core::sbs::SbsMsg<u64>;

fn run_with_adversary(
    seed: u64,
    adversary: Box<dyn Process<Msg>>,
) -> (Simulation<Msg>, Vec<usize>) {
    let (n, f) = (4usize, 1usize);
    let config = SystemConfig::new(n, f);
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
    for i in 0..n - 1 {
        b = b.add(Box::new(SbsProcess::new(i, config, 10 + i as u64)));
    }
    b = b.add(adversary);
    let mut sim = b.build();
    let out = sim.run(10_000_000);
    assert!(out.quiescent, "seed {seed}: no quiescence");
    (sim, (0..n - 1).collect())
}

fn check_safety(sim: &Simulation<Msg>, correct: &[usize], label: &str) -> Vec<ValueSet<u64>> {
    let mut decisions = Vec::new();
    let mut pairs = Vec::new();
    for &i in correct {
        let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
        if let Some(d) = &p.decision {
            decisions.push(d.clone());
            pairs.push((p.proposal, d.clone()));
        }
    }
    spec::check_comparability(&decisions).unwrap_or_else(|e| panic!("{label}: {e}"));
    spec::check_inclusivity(&pairs).unwrap_or_else(|e| panic!("{label}: {e}"));
    decisions
}

#[test]
fn conflict_signer_injects_at_most_one_value() {
    for seed in 0..6 {
        let (sim, correct) = run_with_adversary(
            seed,
            Box::new(ConflictSigner {
                me: 3,
                a: 666u64,
                b: 777u64,
            }),
        );
        let decisions = check_safety(&sim, &correct, &format!("conflict seed {seed}"));
        for d in &decisions {
            assert!(
                !(d.contains(&666) && d.contains(&777)),
                "seed {seed}: Lemma 13 violated — both conflicting values safe"
            );
        }
        // Liveness: correct processes decide despite the conflicting
        // inits (the conflicted pair is pruned from safety sets).
        assert_eq!(decisions.len(), correct.len(), "seed {seed}: liveness");
    }
}

#[test]
fn proof_forger_never_corrupts_decisions() {
    for seed in 0..6 {
        let (sim, correct) = run_with_adversary(
            seed,
            Box::new(ProofForger {
                me: 3,
                value: 999_999u64,
            }),
        );
        let decisions = check_safety(&sim, &correct, &format!("forger seed {seed}"));
        for d in &decisions {
            assert!(
                !d.contains(&999_999),
                "seed {seed}: a forged proof of safety was accepted"
            );
        }
        assert_eq!(decisions.len(), correct.len(), "seed {seed}: liveness");
    }
}

#[test]
fn bogus_delta_references_resync_without_violating_safety() {
    // The delta-gap schedule search: an adversary shipping deltas whose
    // references and bases cannot resolve (forged-proof ids included)
    // must be detected as a gap on every delivery. Honest processes
    // answer with resync requests, survive the adversary's Full
    // fallback (AllSafe rejects its forged content), keep deciding, and
    // never absorb the poison value.
    for seed in 0..6 {
        let (sim, correct) = run_with_adversary(seed, Box::new(BogusRefSender::new(3, 31_337u64)));
        let decisions = check_safety(&sim, &correct, &format!("bogus-ref seed {seed}"));
        for d in &decisions {
            assert!(
                !d.contains(&31_337),
                "seed {seed}: a bogus-reference payload was accepted"
            );
        }
        assert_eq!(decisions.len(), correct.len(), "seed {seed}: liveness");
        // The fallback ran end-to-end: gaps were detected (resyncs
        // sent by honest processes) and answered (the adversary saw
        // them and replied Full).
        let resyncs = sim
            .metrics()
            .sent_by_kind
            .get("resync")
            .copied()
            .unwrap_or(0);
        assert!(resyncs > 0, "seed {seed}: no gap was ever detected");
        let adv = sim.process_as::<BogusRefSender<u64>>(3).unwrap();
        assert!(
            adv.resyncs_seen > 0,
            "seed {seed}: resync requests never reached the sender"
        );
    }
}

/// A scripted peer that feeds one honest acceptor a delta referencing a
/// proof it cannot resolve, then honors the resync request with the
/// full payload — the cooperative (non-Byzantine-content) resync round
/// trip, pinned hop by hop.
struct GapThenFull {
    payload: bgla::core::ValueSet<bgla::core::sbs::ProvenValue<u64>>,
    resynced: bool,
    acked: bool,
}

impl Process<SbsMsg<u64>> for GapThenFull {
    fn on_start(&mut self, ctx: &mut Context<SbsMsg<u64>>) {
        let refs = self.payload.iter().map(|pv| pv.proof.id()).collect();
        ctx.send(
            0,
            SbsMsg::AckReq {
                proposed: ProvenUpdate::Delta {
                    base_ts: 0,
                    new: self.payload.clone(),
                    refs,
                },
                ts: 1,
            },
        );
    }
    fn on_message(&mut self, _from: usize, msg: SbsMsg<u64>, ctx: &mut Context<SbsMsg<u64>>) {
        match msg {
            SbsMsg::Resync { ts } => {
                self.resynced = true;
                ctx.send(
                    0,
                    SbsMsg::AckReq {
                        proposed: ProvenUpdate::Full(self.payload.clone()),
                        ts,
                    },
                );
            }
            SbsMsg::Ack { ts: 1, .. } => {
                self.acked = true;
            }
            _ => {}
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn resync_round_trip_recovers_a_valid_payload() {
    // Build a *well-formed* proven value (a real quorum of safe-acks),
    // but deliver it first as an unresolvable reference: the acceptor
    // must gap → resync → accept the Full resend → ack.
    use bgla::core::proof::Proof;
    use bgla::core::sbs::ProvenValue;

    let config = SystemConfig::new(4, 1);
    let sv = SignedValue::sign(42u64, 1, &Keypair::for_process(1));
    let rcvd: bgla::core::ValueSet<SignedValue<u64>> = [sv.clone()].into_iter().collect();
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
    let payload: bgla::core::ValueSet<ProvenValue<u64>> = [ProvenValue {
        signed: sv,
        proof: Proof::new(acks),
    }]
    .into_iter()
    .collect();

    let mut sim = SimulationBuilder::new()
        .add(Box::new(SbsProcess::new(0, config, 7u64)))
        .add(Box::new(GapThenFull {
            payload,
            resynced: false,
            acked: false,
        }))
        .add(Box::new(SilentS::default()))
        .add(Box::new(SilentS::default()))
        .build();
    assert!(sim.run(100_000).quiescent);
    let feeder = sim.process_as::<GapThenFull>(1).unwrap();
    assert!(feeder.resynced, "the gap must be answered with a resync");
    assert!(
        feeder.acked,
        "the Full fallback must be consumed and acked — the reference \
         pipeline recovered end-to-end"
    );
}

#[test]
fn silent_process_does_not_block_sbs() {
    for seed in 0..6 {
        let (sim, correct) = run_with_adversary(seed, Box::new(SilentS::default()));
        let decisions = check_safety(&sim, &correct, &format!("silent seed {seed}"));
        assert_eq!(decisions.len(), correct.len(), "seed {seed}: liveness");
        // Non-triviality: only correct inputs can appear (the silent one
        // contributed nothing).
        let inputs: std::collections::BTreeSet<u64> =
            correct.iter().map(|&i| 10 + i as u64).collect();
        spec::check_nontriviality(&inputs, &decisions, 1)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

/// Id of the signature forger in the runs below (`n = 4`, `f = 1`).
const FORGER: usize = 3;

/// The value the forger's init carries.
const POISON: u64 = 66_666;

/// Runs three correct processes and the adversary `mk` builds (process
/// [`FORGER`]) under each of six random schedules, one delivery at a
/// time. No record the adversary signed may join `Safety_set` or count as
/// a safe-ack, a process that got one of its safe-acks while safetying
/// must have flagged it in `byz` once it proposes, and every correct
/// process decides without the poison value. Returns how many processes
/// got such a safe-ack while safetying.
fn safe_acks_never_count_and_flag_the_sender(mk: impl Fn() -> Box<dyn Process<Msg>>) -> usize {
    let mut flagged = 0;
    for seed in 0..6 {
        let (n, f) = (4usize, 1usize);
        let config = SystemConfig::new(n, f);
        let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
        for i in 0..FORGER {
            b = b.add(Box::new(SbsProcess::new(i, config, 10 + i as u64)));
        }
        let mut sim = b.add(mk()).build();
        sim.enable_trace();
        let mut forged_while_safetying = [false; FORGER];
        let mut steps = 0u64;
        loop {
            let before: Vec<SbsState> = (0..FORGER)
                .map(|i| sim.process_as::<SbsProcess<u64>>(i).unwrap().state())
                .collect();
            if !sim.step() {
                break;
            }
            steps += 1;
            assert!(steps < 1_000_000, "seed {seed}: no quiescence");
            let last = sim.trace().unwrap().events().last().unwrap();
            if last.from == FORGER && last.kind == "safe_ack" && last.to < FORGER {
                forged_while_safetying[last.to] |= before[last.to] == SbsState::Safetying;
            }
            for (i, &forged_seen) in forged_while_safetying.iter().enumerate() {
                let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
                assert!(
                    p.safety_set().iter().all(|sv| sv.signer != FORGER),
                    "seed {seed} p{i}: a forged init joined"
                );
                assert!(
                    p.safe_acks().iter().all(|a| a.signer != FORGER),
                    "seed {seed} p{i}: a forged safe-ack counted"
                );
                if forged_seen && p.state() != SbsState::Safetying {
                    assert!(
                        p.byz().contains(&FORGER),
                        "seed {seed} p{i}: proposing without flagging the forger"
                    );
                }
            }
        }
        let correct: Vec<usize> = (0..FORGER).collect();
        let decisions = check_safety(&sim, &correct, &format!("seed {seed}"));
        assert_eq!(decisions.len(), correct.len(), "seed {seed}: liveness");
        assert!(
            decisions.iter().all(|d| !d.contains(&POISON)),
            "seed {seed}: a forged init was decided"
        );
        flagged += forged_while_safetying.iter().filter(|&&seen| seen).count();
    }
    flagged
}

#[test]
fn forged_signatures_never_count_and_flag_the_forger() {
    // Structurally valid inits and safe-acks with bad signatures are held
    // like any others until a threshold's worth has arrived; the batch
    // that checks them must drop exactly those, at every delivery, and a
    // forged safe-ack that reached a process while it was safetying must
    // have put the forger in `byz` by the time it proposes.
    let flagged = safe_acks_never_count_and_flag_the_sender(|| {
        Box::new(SigForger {
            me: FORGER,
            value: POISON,
        })
    });
    assert!(
        flagged > 0,
        "no forged safe-ack ever reached a safetying process"
    );
}

#[test]
fn a_safe_ack_over_another_set_flags_its_sender() {
    // The reply carries no echo: the proposer reads it as signed over its
    // own `Safety_set`, so an acceptor that signed another set fails the
    // signature check at quorum and is in `byz` before `Proposing`.
    let flagged = safe_acks_never_count_and_flag_the_sender(|| Box::new(WrongEcho { me: FORGER }));
    assert!(flagged > 0, "no such safe-ack reached a safetying process");
}

/// Hands `msg` from `from` to `p`, process `me` of four, and returns
/// what it sent to process 0.
fn deliver<P: Process<Msg>>(p: &mut P, me: usize, from: usize, msg: Msg) -> Vec<Msg> {
    let mut ctx = Context::for_embedding(me, 4, 0, 0);
    p.on_message(from, msg, &mut ctx);
    ctx.take_outbox()
        .into_iter()
        .filter(|(to, _)| *to == 0)
        .map(|(_, m)| m)
        .collect()
}

/// Delivers each of `msgs` from `from` to process 0, keeping what it
/// sends itself.
fn feed(p0: &mut SbsProcess<u64>, from: usize, msgs: Vec<Msg>) -> Vec<Msg> {
    msgs.into_iter()
        .flat_map(|m| deliver(p0, 0, from, m))
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
    // One correct process, deliveries chosen by hand: at each threshold
    // the forger's record (sent twice, as the forger does) is held with
    // one genuine record, the batch fails, the fallback drops the forged
    // record alone — and, for the safe-ack, flags the forger — its
    // redeliveries are answered from the cache, and the last genuine
    // record completes the threshold by itself.
    let config = SystemConfig::new(4, 1);
    let mut p0 = SbsProcess::new(0, config, 10u64);
    let mut forger = SigForger {
        me: FORGER,
        value: POISON,
    };
    let mut ctx = Context::for_embedding(0, 4, 0, 0);
    p0.on_start(&mut ctx);
    let mut ctx = Context::for_embedding(FORGER, 4, 0, 0);
    forger.on_start(&mut ctx);
    let forged_inits: Vec<Msg> = ctx
        .take_outbox()
        .into_iter()
        .filter(|(to, _)| *to == 0)
        .map(|(_, m)| m)
        .collect();
    assert_eq!(forged_inits.len(), 2);
    let init = |i: usize| {
        SbsMsg::Init(SignedValue::sign(
            10 + i as u64,
            i,
            &Keypair::for_process(i),
        ))
    };

    feed(&mut p0, FORGER, forged_inits.clone());
    assert_eq!(p0.verifier_stats(), stats(0, 0, 0));
    feed(&mut p0, 1, vec![init(1)]);
    assert_eq!(p0.verifier_stats(), stats(2, 1, 2));
    feed(&mut p0, FORGER, forged_inits);
    assert_eq!(p0.verifier_stats(), stats(2, 1, 2));
    let safe_req = feed(&mut p0, 2, vec![init(2)]);
    assert_eq!(p0.verifier_stats(), stats(3, 1, 2));
    assert_eq!(p0.state(), SbsState::Safetying);
    let set = p0.safety_set().clone();
    assert_eq!(set.len(), 3);
    assert!(set.iter().all(|sv| sv.signer != FORGER));

    let safe_req = safe_req.into_iter().next().expect("p0 asks itself");
    let forged_safe_acks = deliver(&mut forger, FORGER, 0, safe_req.clone());
    assert_eq!(forged_safe_acks.len(), 2);
    let own_safe_ack = feed(&mut p0, 0, vec![safe_req]);
    let safe_ack = |i: usize| {
        let body = SafeAckBody {
            rcvd: set.clone(),
            conflicts: vec![],
        };
        SbsMsg::SafeAck(SignedSafeAck::sign(body, i, &Keypair::for_process(i)).reply())
    };
    feed(&mut p0, FORGER, forged_safe_acks.clone());
    feed(&mut p0, 0, own_safe_ack);
    assert_eq!(p0.verifier_stats(), stats(3, 1, 2));
    assert!(p0.byz().is_empty(), "flagged on arrival, not at quorum");
    feed(&mut p0, 1, vec![safe_ack(1)]);
    assert_eq!(p0.verifier_stats(), stats(5, 2, 4));
    assert_eq!(p0.state(), SbsState::Safetying);
    assert!(p0.byz().contains(&FORGER));
    feed(&mut p0, FORGER, forged_safe_acks);
    assert_eq!(p0.verifier_stats(), stats(5, 2, 4));
    feed(&mut p0, 2, vec![safe_ack(2)]);
    assert_eq!(p0.verifier_stats(), stats(6, 2, 4));
    assert_eq!(p0.state(), SbsState::Proposing);
    assert_eq!(p0.safe_acks().len(), 3);
    assert!(p0.safe_acks().iter().all(|a| a.signer != FORGER));
    assert_eq!(p0.byz().iter().copied().collect::<Vec<_>>(), vec![FORGER]);
}

#[test]
fn each_safe_ack_over_another_set_is_verified_once() {
    // One correct process through its safetying, by hand: the safe-ack
    // signed over another set (sent twice, as the adversary does) is held
    // with one genuine safe-ack, the batch fails, the fallback drops it
    // alone and flags its sender, its redeliveries are answered from the
    // cache, and the last genuine safe-ack completes the quorum by itself.
    let config = SystemConfig::new(4, 1);
    let mut p0 = SbsProcess::new(0, config, 10u64);
    let mut ctx = Context::for_embedding(0, 4, 0, 0);
    p0.on_start(&mut ctx);
    let init = |i: usize| {
        SbsMsg::Init(SignedValue::sign(
            10 + i as u64,
            i,
            &Keypair::for_process(i),
        ))
    };
    feed(&mut p0, 1, vec![init(1)]);
    let safe_req = feed(&mut p0, 2, vec![init(2)]);
    assert_eq!(p0.state(), SbsState::Safetying);
    assert_eq!(p0.verifier_stats(), stats(0, 1, 2));
    let set = p0.safety_set().clone();

    let safe_req = safe_req.into_iter().next().expect("p0 asks itself");
    let mut adversary = WrongEcho { me: FORGER };
    let wrong = deliver(&mut adversary, FORGER, 0, safe_req.clone());
    assert_eq!(wrong.len(), 2);
    let own_safe_ack = feed(&mut p0, 0, vec![safe_req]);
    let safe_ack = |i: usize| {
        let body = SafeAckBody {
            rcvd: set.clone(),
            conflicts: vec![],
        };
        SbsMsg::SafeAck(SignedSafeAck::sign(body, i, &Keypair::for_process(i)).reply())
    };
    feed(&mut p0, FORGER, wrong.clone());
    feed(&mut p0, 0, own_safe_ack);
    assert_eq!(p0.verifier_stats(), stats(0, 1, 2));
    assert!(p0.byz().is_empty(), "flagged on arrival, not at quorum");
    feed(&mut p0, 1, vec![safe_ack(1)]);
    assert_eq!(p0.verifier_stats(), stats(2, 2, 4));
    assert_eq!(p0.state(), SbsState::Safetying);
    assert!(p0.byz().contains(&FORGER));
    feed(&mut p0, FORGER, wrong);
    assert_eq!(p0.verifier_stats(), stats(2, 2, 4));
    feed(&mut p0, 2, vec![safe_ack(2)]);
    assert_eq!(p0.verifier_stats(), stats(3, 2, 4));
    assert_eq!(p0.state(), SbsState::Proposing);
    assert!(p0.safe_acks().iter().all(|a| a.signer != FORGER));
    assert_eq!(p0.byz().iter().copied().collect::<Vec<_>>(), vec![FORGER]);
}
