//! Unit tests of the benchmark's own machinery (statistics and `/proc`
//! parsers are tested beside their code in `stats.rs`, the catalog in
//! `catalog.rs`).

use crate::catalog::END_TO_END;
use crate::measure::{Metric, Outcome};
use crate::observed::{collect, self_time_ns, Observed, Probe, Rounded, Sink};
use crate::workloads::{
    run_trial, stream_schedule, ClientProbe, Mode, StreamProbe, SystemKind, Workload,
};
use crate::{agreement, gate_json, parse_child};
use bgla_core::gwts::{GwtsMsg, GwtsProcess};
use bgla_core::{SystemConfig, ValueSet};
use bgla_rsm::{ClientOp, Op, WorkloadClient};
use bgla_simnet::{Context, Process, ProcessId, RandomScheduler, Simulation, SimulationBuilder};
use std::any::Any;
use std::time::Instant;

#[test]
fn self_time_is_duration_minus_child_coverage() {
    // Disjoint children.
    assert_eq!(self_time_ns((0, 100), &mut [(10, 20), (50, 80)]), 60);
    // Overlapping children are covered once.
    assert_eq!(self_time_ns((0, 100), &mut [(10, 40), (30, 60)]), 50);
    // A child nested in another adds nothing.
    assert_eq!(self_time_ns((0, 100), &mut [(10, 90), (20, 30)]), 20);
    // Children are clipped to the parent; order does not matter.
    assert_eq!(self_time_ns((50, 100), &mut [(90, 150), (0, 60)]), 30);
    assert_eq!(self_time_ns((0, 100), &mut []), 100);
    assert_eq!(self_time_ns((0, 100), &mut [(0, 100), (0, 100)]), 0);
}

const SMALL_GWTS: Workload = Workload {
    name: "test_gwts_n4",
    why: "",
    system: SystemKind::SimGwts,
    n: 4,
    f: 1,
    rounds: 6,
    per_round: 2,
    trials: 1,
    deadline_s: 10,
};

fn small_gwts(seed: u64, wrapped: Option<&Sink<GwtsMsg<u64>>>) -> Simulation<GwtsMsg<u64>> {
    let w = &SMALL_GWTS;
    let cfg = SystemConfig::new(w.n, w.f);
    let mut b = SimulationBuilder::new().scheduler(Box::new(RandomScheduler::new(seed)));
    for i in 0..w.n {
        let p = GwtsProcess::new(i, cfg, stream_schedule(w, seed, i), w.rounds);
        b = match wrapped {
            None => b.add(Box::new(p)),
            Some(sink) => b.add(Box::new(Observed::new(
                i,
                p,
                StreamProbe,
                Instant::now(),
                i % 2 == 0, // half the nodes also record spans
                sink,
            ))),
        };
    }
    b.build()
}

#[test]
fn observed_is_transparent() {
    for seed in [3, 17] {
        let sink = Sink::default();
        let mut bare = small_gwts(seed, None);
        let mut wrapped = small_gwts(seed, Some(&sink));
        let (a, b) = (bare.run(u64::MAX), wrapped.run(u64::MAX));
        assert!(a.quiescent && b.quiescent);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(bare.metrics(), wrapped.metrics());
        for i in 0..SMALL_GWTS.n {
            // `as_any` reaches the inner process, so the same downcast works.
            let p = bare.process_as::<GwtsProcess<u64>>(i).unwrap();
            let q = wrapped.process_as::<GwtsProcess<u64>>(i).unwrap();
            assert_eq!(p.decisions, q.decisions);
            assert_eq!(p.decision_depths, q.decision_depths);
            assert_eq!(p.all_inputs, q.all_inputs);
        }
        // And the wrapper saw every op complete.
        let recs = collect(wrapped, &sink);
        let per_proc = ((SMALL_GWTS.rounds - 2) * SMALL_GWTS.per_round) as usize;
        assert_eq!(recs.len(), SMALL_GWTS.n);
        for rec in &recs {
            assert_eq!((rec.ops.len(), rec.unfinished), (per_proc, 0));
            assert_eq!(rec.spans.is_empty(), rec.node % 2 == 1);
            assert!(rec.ops.iter().all(|op| op.done_ns >= op.submit_ns));
        }
    }
}

#[test]
fn trial_counts_ops_and_passes_its_checks() {
    for mode in [Mode::Timed, Mode::Check, Mode::Byz] {
        let t = run_trial(&SMALL_GWTS, 5, mode);
        assert_eq!(t.verdict, Some(Ok(())), "{mode:?}");
        let honest = if mode == Mode::Byz { 3 } else { 4 };
        assert_eq!(t.attempted, honest * 8);
        assert_eq!(t.ops.len(), t.attempted, "{mode:?}");
        if mode != Mode::Timed {
            assert!(t.layer["core.linearize.ops_checked"] > 0.0);
        }
    }
}

/// A scripted stand-in for a stream proposer: each message either feeds a
/// value or decides everything fed so far.
#[derive(Default)]
struct Scripted {
    inputs: Vec<u64>,
    decisions: Vec<ValueSet<u64>>,
}

const DECIDE: u64 = 0;

impl Process<u64> for Scripted {
    fn on_message(&mut self, _from: ProcessId, msg: u64, _ctx: &mut Context<u64>) {
        if msg == DECIDE {
            self.decisions.push(self.inputs.iter().copied().collect());
        } else {
            self.inputs.push(msg);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct ScriptedProbe;

impl Probe<Scripted> for ScriptedProbe {
    fn counts(&self, p: &Scripted) -> (usize, usize) {
        (p.inputs.len(), p.decisions.len())
    }
    fn submitted_keys(&self, p: &Scripted, from: usize, out: &mut Vec<u64>) {
        out.extend_from_slice(p.inputs.get(from..).unwrap_or_default());
    }
    fn is_done(&self, p: &Scripted, key: u64) -> bool {
        p.decisions.last().is_some_and(|d| d.contains(&key))
    }
}

impl Rounded for u64 {
    fn round_of(&self) -> Option<u64> {
        None
    }
}

#[test]
fn one_decide_completes_the_values_of_several_rounds() {
    let sink = Sink::default();
    let mut p = Observed::new(
        0,
        Scripted::default(),
        ScriptedProbe,
        Instant::now(),
        false,
        &sink,
    );
    // Values of three "rounds" enter at depths 1, 4 and 7; nothing decides
    // until depth 9, and one more value arrives after that.
    for (msg, depth) in [(11, 1), (22, 4), (33, 7), (DECIDE, 9), (44, 10)] {
        let mut ctx = Context::for_embedding(0, 1, depth, 0);
        p.on_message(0, msg, &mut ctx);
    }
    let recs = collect(p, &sink);
    let rec = &recs[0];
    let done: Vec<(u64, u64, u64)> = rec
        .ops
        .iter()
        .map(|op| (op.key, op.submit_depth, op.done_depth))
        .collect();
    assert_eq!(done, [(11, 1, 9), (22, 4, 9), (33, 7, 9)]);
    // All three completed in the same call, each timed from its own submit.
    assert!(rec.ops.windows(2).all(|w| w[0].done_ns == w[1].done_ns));
    assert!(rec.ops.windows(2).all(|w| w[0].submit_ns <= w[1].submit_ns));
    // The value fed after the decide is submitted but never completes.
    assert_eq!(rec.unfinished, 1);
}

#[test]
fn client_probe_follows_the_closed_loop() {
    let script = vec![ClientOp::Update(Op::Add(1)), ClientOp::Read];
    let probe = ClientProbe::new(script.len());
    let mut c = WorkloadClient::new(1, 4, 1, script);
    // Op 0 is out as soon as the client starts; nothing is done.
    assert_eq!(probe.counts(&c), (1, 0));
    let mut keys = Vec::new();
    probe.submitted_keys(&c, 0, &mut keys);
    assert_eq!(keys, [0]);
    assert!(!probe.is_done(&c, 0));
    // A result completes op 0 and submits op 1 in the same step...
    c.results
        .push(bgla_rsm::client::OpResult::ReadValue(ValueSet::new()));
    assert_eq!(probe.counts(&c), (2, 1));
    assert!(probe.is_done(&c, 0) && !probe.is_done(&c, 1));
    // ...and the last result submits nothing further.
    c.results
        .push(bgla_rsm::client::OpResult::ReadValue(ValueSet::new()));
    assert_eq!(probe.counts(&c), (2, 2));
}

#[test]
fn child_lines_round_trip_and_render_as_the_gate_line() {
    let text = "metric setup_s 0.25 9\nmetric ops_per_s 1234.5 3\n\
                note seed 2: clients [5] never finished\nresult true 800 7\n";
    let o = parse_child(text).unwrap();
    assert!(o.correct);
    assert_eq!((o.attempted, o.failed), (800, 7));
    assert_eq!(o.notes, ["seed 2: clients [5] never finished"]);
    assert_eq!(
        o.metrics[1],
        Metric {
            name: "ops_per_s".into(),
            unit: "1/s",
            value: 1234.5,
            samples: 3
        }
    );
    // No result line: the child died mid-way.
    assert!(parse_child("metric setup_s 0.25 9\n").is_none());

    let line = gate_json(&o, false);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 800, \"failed\": 7, \"metrics\": {")
    );
    assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    // Every end-to-end metric is present, a missing one as 0.
    for m in &END_TO_END {
        assert!(
            line.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{}",
            m.name
        );
    }
    assert!(line.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
    // A lost child still yields a well-formed line with attempted >= 1.
    let lost = gate_json(&Outcome::default(), false);
    assert!(lost.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 0"));
}

#[test]
fn selfcheck_agreement_is_exact_for_sim_counts_and_bounded_otherwise() {
    let by_name = |name| END_TO_END.iter().find(|m| m.name == name).unwrap();
    let msgs = by_name("msgs_per_op");
    assert!(agreement(msgs, true, 746.25, 746.25).1);
    assert!(
        !agreement(msgs, true, 746.25, 746.26).1,
        "sim counts must repeat exactly"
    );
    assert!(
        agreement(msgs, false, 100.0, 110.0).1,
        "tcp counts only within the bound"
    );
    let lat = by_name("op_latency_p50_ms");
    assert!(agreement(lat, true, 10.0, 12.0).1);
    let (spread, ok) = agreement(lat, true, 10.0, 20.0);
    assert!(!ok && (spread - 0.5).abs() < 1e-9);
}
