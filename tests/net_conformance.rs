//! Protocol conformance over the real TCP runtime: all four algorithms
//! run over localhost sockets under a seeded fault injector (drops,
//! duplicates, delays, mid-frame resets, partition windows), must
//! decide exactly as the reliable-link model promises, and their merged
//! traces must pass the *unchanged* PR-5 prefix checker — the same
//! `check_trace` the simulator sweeps use, fed by the same observer
//! diffing logic, ordered by the same op priority.
//!
//! The differential half pins the decision-level outcome against
//! simulator runs: in an honest quiescent run, inclusivity plus
//! non-triviality force the union of all correct decisions to equal the
//! union of all inputs — a schedule-independent invariant that must
//! hold identically on both runtimes, for every seed.

use bgla::core::adversary::Equivocator;
use bgla::core::gsbs::GsbsProcess;
use bgla::core::gwts::GwtsProcess;
use bgla::core::harness::{
    assert_la_spec, gsbs_node_observer, gwts_node_observer, sbs_node_observer, sbs_system,
    wts_node_observer, wts_report, wts_system,
};
use bgla::core::linearize::{check_trace, CheckerConfig};
use bgla::core::sbs::SbsProcess;
use bgla::core::search::op_priority;
use bgla::core::wts::WtsProcess;
use bgla::core::{SystemConfig, ValueSet};
use bgla::net::{FaultConfig, FaultPlan, NetConfig, TcpRuntime, TcpRuntimeBuilder};
use bgla::simnet::{FifoScheduler, RandomScheduler, Scheduler, Trace, Transport};
use std::collections::{BTreeMap, BTreeSet};

const N: usize = 4;
const F: usize = 1;
const BUDGET: u64 = 1_000_000;

type GwtsMsg = bgla::core::gwts::GwtsMsg<u64>;

fn ident(v: &u64) -> u64 {
    *v
}

/// Transport config as shipped, with the given fault schedule.
fn net_cfg(fault_seed: u64, faults: FaultConfig, seed: u64) -> NetConfig {
    NetConfig {
        faults: FaultPlan::new(fault_seed, faults),
        seed,
        ..NetConfig::default()
    }
}

/// Runs the TCP system to quiescence, asserting it got there, and
/// returns the merged trace (which shuts the runtime down).
fn run_and_trace<M>(rt: &mut TcpRuntime<M>, label: &str) -> Trace
where
    M: bgla::simnet::WireMessage + bgla::codec::Wire + 'static,
{
    let out = rt.run_transport(BUDGET);
    assert!(
        out.quiescent,
        "{label}: fault masking failed to quiesce (delivered {})",
        out.delivered
    );
    rt.take_trace(op_priority)
}

/// The union of every correct process's (final) decision.
fn union(decisions: &[ValueSet<u64>]) -> BTreeSet<u64> {
    decisions.iter().flat_map(|d| d.iter().copied()).collect()
}

// ---------------------------------------------------------------------------
// WTS
// ---------------------------------------------------------------------------

fn wts_tcp(fault_seed: u64, faults: FaultConfig) -> TcpRuntime<bgla::core::wts::WtsMsg<u64>> {
    let config = SystemConfig::new(N, F);
    let mut b = TcpRuntimeBuilder::new(net_cfg(fault_seed, faults, fault_seed ^ 0xA5));
    for i in 0..N {
        b = b.add_observed(
            Box::new(WtsProcess::new(i, config, 10 + i as u64)),
            wts_node_observer(i, ident),
        );
    }
    b.build().expect("bind localhost")
}

#[test]
fn wts_over_tcp_under_chaos_matches_simnet_and_conforms() {
    let inputs: BTreeSet<u64> = (0..N).map(|i| 10 + i as u64).collect();
    let correct: Vec<usize> = (0..N).collect();

    // Simulator side of the differential: the honest-run invariant
    // (union of decisions == union of inputs) across schedules.
    for sched in [
        Box::new(FifoScheduler::new()) as Box<dyn Scheduler>,
        Box::new(RandomScheduler::new(42)),
    ] {
        let (mut sim, config) = wts_system(N, F, |i| 10 + i as u64, sched);
        assert!(sim.run(BUDGET).quiescent);
        let report = wts_report(&sim, &correct);
        assert_la_spec(&report, &inputs, config.f);
        assert_eq!(union(&report.decisions), inputs);
    }

    // TCP side, two fault seeds: same spec battery, same invariant,
    // and the merged trace passes the unchanged prefix checker.
    for fault_seed in [0xC0DE, 0xBEEF] {
        let mut rt = wts_tcp(fault_seed, FaultConfig::chaos());
        let out = rt.run_transport(BUDGET);
        assert!(out.quiescent, "wts/tcp({fault_seed:#x}): did not quiesce");

        let report = wts_report(&rt, &correct);
        assert_la_spec(&report, &inputs, F);
        assert_eq!(union(&report.decisions), inputs);

        let m = rt.metrics_snapshot();
        assert!(m.net_retransmits > 0, "chaos must force retransmissions");
        assert!(m.net_dup_frames > 0, "chaos must exercise dedup");

        let trace = rt.take_trace(op_priority);
        let witness = check_trace(&trace, &CheckerConfig::honest_system(N, F))
            .unwrap_or_else(|v| panic!("wts/tcp({fault_seed:#x}): violation: {v}"));
        witness.validate().expect("linearization witness validates");
    }
}

#[test]
fn wts_over_tcp_with_equivocator_conforms() {
    let config = SystemConfig::new(N, F);
    // Reset-heavy schedule: the Byzantine run also pins the
    // reconnect/resync path (`net_reconnects` below).
    let faults = FaultConfig {
        drop_per_mille: 60,
        reset_per_mille: 200,
        ..FaultConfig::default()
    };
    let mut b = TcpRuntimeBuilder::new(net_cfg(0x0B57, faults, 3));
    for i in 0..N - 1 {
        b = b.add_observed(
            Box::new(WtsProcess::new(i, config, 10 + i as u64)),
            wts_node_observer(i, ident),
        );
    }
    b = b.add(Box::new(Equivocator {
        a: 91_001u64,
        b: 91_002u64,
    }));
    let mut rt = b.build().expect("bind localhost");
    let trace = run_and_trace(&mut rt, "wts/tcp/equivocator");

    // Every honest process decided, and the trace passes the Byzantine
    // checker config (≤ f foreign values, comparability, inclusivity
    // over honest processes).
    for i in 0..N - 1 {
        rt.with_process(i, &mut |p| {
            let w = p.as_any().downcast_ref::<WtsProcess<u64>>().unwrap();
            assert!(w.decision.is_some(), "honest process {i} did not decide");
        });
    }
    let m = rt.metrics_snapshot();
    assert!(m.net_reconnects > 0, "20% resets must force reconnects");
    assert!(m.net_retransmits > 0, "drops must force retransmissions");

    let witness = check_trace(&trace, &CheckerConfig::with_byzantine(N, F, &[N - 1]))
        .unwrap_or_else(|v| panic!("wts/tcp/equivocator: violation: {v}"));
    witness.validate().expect("witness validates");
}

// ---------------------------------------------------------------------------
// SbS
// ---------------------------------------------------------------------------

#[test]
fn sbs_over_tcp_under_chaos_matches_simnet_and_conforms() {
    let config = SystemConfig::new(N, F);
    let inputs: BTreeSet<u64> = (0..N).map(|i| 10 + i as u64).collect();

    // Simulator side: same invariant through the signature algorithm.
    let (mut sim, _) = sbs_system(N, F, |i| 10 + i as u64, Box::new(FifoScheduler::new()));
    assert!(sim.run(BUDGET).quiescent);
    let mut sim_union = BTreeSet::new();
    for i in 0..N {
        let p = sim.process_as::<SbsProcess<u64>>(i).unwrap();
        let d = p.decision.as_ref().expect("sim: everyone decides");
        sim_union.extend(d.iter().copied());
    }
    assert_eq!(sim_union, inputs);

    // TCP side under chaos.
    let mut b = TcpRuntimeBuilder::new(net_cfg(0x5B5, FaultConfig::chaos(), 11));
    for i in 0..N {
        b = b.add_observed(
            Box::new(SbsProcess::new(i, config, 10 + i as u64)),
            sbs_node_observer(i, ident),
        );
    }
    let mut rt = b.build().expect("bind localhost");
    let trace = run_and_trace(&mut rt, "sbs/tcp");

    let mut tcp_union = BTreeSet::new();
    for i in 0..N {
        rt.with_process(i, &mut |p| {
            let s = p.as_any().downcast_ref::<SbsProcess<u64>>().unwrap();
            let d = s.decision.as_ref().expect("tcp: everyone decides");
            tcp_union.extend(d.iter().copied());
        });
    }
    assert_eq!(tcp_union, sim_union, "decision-level differential");

    let witness = check_trace(&trace, &CheckerConfig::honest_system(N, F))
        .unwrap_or_else(|v| panic!("sbs/tcp: violation: {v}"));
    witness.validate().expect("witness validates");
}

// ---------------------------------------------------------------------------
// GWTS / GSbS (streaming)
// ---------------------------------------------------------------------------

fn round0_schedule(i: usize) -> BTreeMap<u64, Vec<u64>> {
    // Inputs only in round 0 of 3: two drain rounds keep inclusivity
    // meaningful at the finite horizon (as in the simulator sweeps).
    let mut schedule = BTreeMap::new();
    schedule.insert(0, vec![100 + i as u64, 200 + i as u64]);
    schedule
}

fn streaming_inputs() -> BTreeSet<u64> {
    (0..N)
        .flat_map(|i| [100 + i as u64, 200 + i as u64])
        .collect()
}

#[test]
fn gwts_over_tcp_under_chaos_matches_simnet_and_conforms() {
    let config = SystemConfig::new(N, F);
    let rounds = 3u64;
    let inputs = streaming_inputs();

    // Simulator side.
    let (mut sim, _) = bgla::core::harness::gwts_system(
        N,
        F,
        rounds,
        round0_schedule,
        Box::new(FifoScheduler::new()),
    );
    assert!(sim.run(BUDGET).quiescent);
    let mut sim_union = BTreeSet::new();
    for i in 0..N {
        let p = sim.process_as::<GwtsProcess<u64>>(i).unwrap();
        let d = p.decisions.last().expect("sim: decided at least once");
        sim_union.extend(d.iter().copied());
    }
    assert_eq!(sim_union, inputs);

    // TCP side under chaos.
    let mut b = TcpRuntimeBuilder::new(net_cfg(0x6175, FaultConfig::chaos(), 13));
    for i in 0..N {
        b = b.add_observed(
            Box::new(GwtsProcess::new(i, config, round0_schedule(i), rounds)),
            gwts_node_observer(i, ident),
        );
    }
    let mut rt = b.build().expect("bind localhost");
    let trace = run_and_trace(&mut rt, "gwts/tcp");

    let mut tcp_union = BTreeSet::new();
    for i in 0..N {
        rt.with_process(i, &mut |p| {
            let g = p.as_any().downcast_ref::<GwtsProcess<u64>>().unwrap();
            let d = g.decisions.last().expect("tcp: decided at least once");
            tcp_union.extend(d.iter().copied());
        });
    }
    assert_eq!(tcp_union, sim_union, "decision-level differential");

    let witness = check_trace(&trace, &CheckerConfig::honest_system(N, F))
        .unwrap_or_else(|v| panic!("gwts/tcp: violation: {v}"));
    witness.validate().expect("witness validates");
}

#[test]
fn gsbs_over_tcp_under_chaos_matches_simnet_and_conforms() {
    let config = SystemConfig::new(N, F);
    let rounds = 3u64;
    let inputs = streaming_inputs();

    // Simulator side.
    let (mut sim, _) = bgla::core::harness::gsbs_system(
        N,
        F,
        rounds,
        round0_schedule,
        Box::new(FifoScheduler::new()),
    );
    assert!(sim.run(BUDGET).quiescent);
    let mut sim_union = BTreeSet::new();
    for i in 0..N {
        let p = sim.process_as::<GsbsProcess<u64>>(i).unwrap();
        let d = p.decisions.last().expect("sim: decided at least once");
        sim_union.extend(d.iter().copied());
    }
    assert_eq!(sim_union, inputs);

    // TCP side under chaos.
    let mut b = TcpRuntimeBuilder::new(net_cfg(0x65B5, FaultConfig::chaos(), 17));
    for i in 0..N {
        b = b.add_observed(
            Box::new(GsbsProcess::new(i, config, round0_schedule(i), rounds)),
            gsbs_node_observer(i, ident),
        );
    }
    let mut rt = b.build().expect("bind localhost");
    let trace = run_and_trace(&mut rt, "gsbs/tcp");

    let mut tcp_union = BTreeSet::new();
    for i in 0..N {
        rt.with_process(i, &mut |p| {
            let g = p.as_any().downcast_ref::<GsbsProcess<u64>>().unwrap();
            let d = g.decisions.last().expect("tcp: decided at least once");
            tcp_union.extend(d.iter().copied());
        });
    }
    assert_eq!(tcp_union, sim_union, "decision-level differential");

    let witness = check_trace(&trace, &CheckerConfig::honest_system(N, F))
        .unwrap_or_else(|v| panic!("gsbs/tcp: violation: {v}"));
    witness.validate().expect("witness validates");
}

/// A stream of four inputs per process in every round but the last
/// two (the drain rounds): the `e2e` benchmark's TCP shape.
fn stream_schedule(i: usize, rounds: u64) -> BTreeMap<u64, Vec<u64>> {
    (0..rounds - 2)
        .map(|r| {
            (
                r,
                (0..4).map(|k| ((i as u64) << 24) | (r << 8) | k).collect(),
            )
        })
        .collect()
}

/// Builds and runs a GWTS stream over TCP to quiescence and returns
/// the runtime, having checked the benchmark's op-completion rule:
/// every proposer's final decision contains all of its own inputs.
fn gwts_stream_completes(
    n: usize,
    rounds: u64,
    cfg: NetConfig,
    label: &str,
) -> TcpRuntime<GwtsMsg> {
    let config = SystemConfig::new(n, (n - 1) / 3);
    let mut b = TcpRuntimeBuilder::new(cfg);
    for i in 0..n {
        let schedule = stream_schedule(i, rounds);
        b = b.add(Box::new(GwtsProcess::new(i, config, schedule, rounds)));
    }
    let mut rt = b.build().expect("bind localhost");
    let out = rt.run_transport(u64::MAX);
    assert!(out.quiescent, "{label}: did not quiesce");
    for i in 0..n {
        rt.with_process(i, &mut |p| {
            let g = p.as_any().downcast_ref::<GwtsProcess<u64>>().unwrap();
            let last = g.decisions.last().expect("decided at least once");
            let missing: Vec<u64> = (stream_schedule(i, rounds).into_values().flatten())
                .filter(|v| !last.contains(v))
                .collect();
            assert!(
                missing.is_empty(),
                "{label}: process {i} never decided {} of its inputs (rounds {:?})",
                missing.len(),
                missing
                    .iter()
                    .map(|v| (v >> 8) & 0xffff)
                    .collect::<BTreeSet<_>>()
            );
        });
    }
    rt
}

/// What the simulator meters a GSbS stream at is what a socket carries:
/// on a fault-free link the bytes written, frame headers and transport
/// acks included, stay within the metered bytes — which also count each
/// broadcast's copy to self, one that never touches a socket. Each
/// proof a payload says once is shipped once.
#[test]
fn gsbs_over_a_fault_free_link_ships_no_more_than_it_meters() {
    let (config, rounds) = (SystemConfig::new(N, F), 6);
    let mut b = TcpRuntimeBuilder::new(NetConfig {
        seed: 5,
        ..NetConfig::default()
    });
    for i in 0..N {
        let schedule = stream_schedule(i, rounds);
        b = b.add(Box::new(GsbsProcess::new(i, config, schedule, rounds)));
    }
    let mut rt = b.build().expect("bind localhost");
    assert!(rt.run_transport(BUDGET).quiescent);
    let m = rt.metrics_snapshot();
    rt.shutdown();
    assert!(
        m.net_frame_bytes <= m.total_bytes(),
        "{} bytes written to sockets, {} metered",
        m.net_frame_bytes,
        m.total_bytes()
    );
}

#[test]
fn gwts_stream_under_chaos_decides_every_input_of_every_proposer() {
    // A link that stalls for two rounds near the end — a timeout that
    // was guessed, a timer armed late, a reconnect waiting on a timer —
    // leaves its process behind when the others finish, and that
    // process's last inputs are never decided. Nothing fails to quiesce
    // then; only this rule sees it.
    for fault_seed in [101, 102, 103, 104, 105, 106, 107, 0xC0DE, 0xBEEF, 0x6175] {
        let cfg = net_cfg(fault_seed, FaultConfig::chaos(), fault_seed);
        let mut rt = gwts_stream_completes(N, 10, cfg, &format!("gwts stream({fault_seed:#x})"));
        let m = rt.metrics_snapshot();
        assert!(m.net_retransmits > 0 && m.net_reconnects > 0);
        rt.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Scale probe (gated: NET_SWEEP=1)
// ---------------------------------------------------------------------------

#[test]
fn net_sweep_thirty_two_honest_wts_nodes_decide_over_one_pool() {
    if std::env::var("NET_SWEEP").is_err() {
        eprintln!("net_sweep: NET_SWEEP unset, skipping the 32-node scale probe");
        return;
    }
    let n = 32;
    let f = 10; // n > 3f still holds: 32 > 30
    let config = SystemConfig::new(n, f);
    let cfg = NetConfig {
        seed: 0x5EEE,
        deadline_ms: 120_000,
        ..NetConfig::default()
    };
    let mut b = TcpRuntimeBuilder::new(cfg);
    for i in 0..n {
        b = b.add(Box::new(WtsProcess::new(i, config, 10 + i as u64)));
    }
    let mut rt = b.build().expect("bind localhost");
    let out = rt.run_transport(10_000_000);
    assert!(
        out.quiescent,
        "32-node honest run must quiesce (delivered {})",
        out.delivered
    );
    let inputs: BTreeSet<u64> = (0..n).map(|i| 10 + i as u64).collect();
    let mut union = BTreeSet::new();
    for i in 0..n {
        rt.with_process(i, &mut |p| {
            let w = p.as_any().downcast_ref::<WtsProcess<u64>>().unwrap();
            let d = w.decision.as_ref().expect("every node decides");
            assert!(
                d.contains(&(10 + i as u64)),
                "node {i} decision misses its own input"
            );
            union.extend(d.iter().copied());
        });
    }
    assert_eq!(union, inputs);
    rt.shutdown();
}

#[test]
fn net_sweep_fault_free_gwts_at_n7_resends_under_one_percent() {
    if std::env::var("NET_SWEEP").is_err() {
        eprintln!("net_sweep: NET_SWEEP unset, skipping the n=7 spurious-resend probe");
        return;
    }
    // Eleven threads on however few cores: ACKs wait for a CPU, and a
    // timeout that is a constant fires while they do (9.6% of all
    // frames, every one a duplicate, before it was measured).
    let cfg = NetConfig {
        seed: 7,
        deadline_ms: 120_000,
        ..NetConfig::default()
    };
    let mut rt = gwts_stream_completes(7, 20, cfg, "gwts n=7 fault-free");
    let m = rt.metrics_snapshot();
    rt.shutdown();
    eprintln!(
        "net_sweep: n=7 fault-free: {} frames, {} resent, {} duplicates",
        m.net_frames, m.net_retransmits, m.net_dup_frames
    );
    assert!(
        m.net_retransmits * 100 <= m.net_frames,
        "{} of {} frames resent on a fault-free wire",
        m.net_retransmits,
        m.net_frames
    );
}
