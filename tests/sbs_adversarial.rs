//! Adversarial end-to-end runs of the signature-based algorithm:
//! conflict-signing, proof forgery, bogus delta references and silence,
//! across random schedules.

use bgla::core::adversary::sbs::{BogusRefSender, ConflictSigner, ProofForger, SilentS};
use bgla::core::sbs::{SbsMsg, SbsProcess};
use bgla::core::{spec, SystemConfig};
use bgla::core::{ProvenUpdate, ValueSet};
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
    use bgla::core::sbs::{ProvenValue, SafeAckBody, SignedSafeAck, SignedValue};
    use bgla::crypto::Keypair;

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
        sv,
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
