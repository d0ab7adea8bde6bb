//! End-to-end checks of the TCP runtime machinery with toy processes:
//! clean-wire delivery, quiescence, metrics, depth propagation, trace
//! recording, and fault-injected runs — all independent of the BGLA
//! protocol layer (which gets its own conformance tests at the
//! workspace root).

use bgla_net::{FaultConfig, FaultPlan, NetConfig, TcpRuntime, TcpRuntimeBuilder};
use bgla_simnet::{Context, NodeObserver, OpEvent, Process, ProcessId, Transport};
use std::any::Any;

/// Broadcasts one message at start; counts what it hears; replies to
/// pings below a bound so multi-hop causal chains exist.
struct Chatter {
    got: u64,
    max_depth_seen: u64,
    hops: u64,
}

impl Chatter {
    fn new(hops: u64) -> Chatter {
        Chatter {
            got: 0,
            max_depth_seen: 0,
            hops,
        }
    }
}

impl Process<u64> for Chatter {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        ctx.broadcast(self.hops);
    }
    fn on_message(&mut self, from: ProcessId, msg: u64, ctx: &mut Context<u64>) {
        self.got += 1;
        self.max_depth_seen = self.max_depth_seen.max(ctx.depth);
        if msg > 0 {
            ctx.send(from, msg - 1);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn build(n: usize, hops: u64, cfg: NetConfig) -> TcpRuntime<u64> {
    let mut b = TcpRuntimeBuilder::new(cfg);
    for _ in 0..n {
        b = b.add(Box::new(Chatter::new(hops)));
    }
    b.build().expect("bind localhost")
}

fn chatter_got(rt: &TcpRuntime<u64>, p: ProcessId) -> u64 {
    let mut got = 0;
    rt.with_process(p, &mut |proc_| {
        got = proc_.as_any().downcast_ref::<Chatter>().unwrap().got;
    });
    got
}

#[test]
fn clean_wire_delivers_everything_and_quiesces() {
    let n = 4;
    let mut rt = build(n, 0, NetConfig::default());
    let out = rt.run_transport(100_000);
    assert!(out.quiescent, "clean 4-node run must quiesce");
    // Every node broadcast one message to all n: n*n deliveries.
    assert_eq!(out.delivered, (n * n) as u64);
    let total: u64 = (0..n).map(|p| chatter_got(&rt, p)).sum();
    assert_eq!(total, (n * n) as u64);

    let m = rt.metrics_snapshot();
    assert_eq!(m.total_sent(), (n * n) as u64);
    assert_eq!(m.delivered, (n * n) as u64);
    // Real frames hit the wire: n*(n-1) DATA minimum, plus ACKs and
    // HELLOs; measured bytes include framing overhead.
    assert!(m.net_frames as usize >= n * (n - 1));
    assert!(m.net_frame_bytes > m.net_frames * 24);
    // A clean wire needs no masking: nothing resent, nothing twice.
    assert_eq!(m.net_retransmits, 0);
    assert_eq!(m.net_dup_frames, 0);
    assert_eq!(m.net_reconnects, 0);
    assert_eq!(m.net_outbox_dropped, 0);
    rt.shutdown();
}

#[test]
fn causal_depth_propagates_like_the_simulator() {
    // Ping-pong chains of 3 hops: the longest single chain is
    // broadcast (depth 1) + 3 bounces = 4, so the deepest observed
    // clock is at least 4. It may exceed 4 — a node's clock is the max
    // over *everything* it observed, and under real concurrency
    // independent chains interleave and compound (exactly as in the
    // simulator when a scheduler interleaves them) — but it can never
    // exceed one unit per delivery performed.
    let n = 2;
    let mut rt = build(n, 3, NetConfig::default());
    let out = rt.run_transport(100_000);
    assert!(out.quiescent);
    let mut max_depth = 0;
    for p in 0..n {
        rt.with_process(p, &mut |proc_| {
            let c = proc_.as_any().downcast_ref::<Chatter>().unwrap();
            max_depth = max_depth.max(c.max_depth_seen);
        });
    }
    assert!(
        (4..=out.delivered).contains(&max_depth),
        "depth {max_depth}"
    );
    rt.shutdown();
}

#[test]
fn run_until_all_stops_at_the_milestone() {
    let n = 3;
    let mut rt = build(n, 0, NetConfig::default());
    let (_, sat) = rt.run_until_all(100_000, &mut |_, proc_| {
        proc_.as_any().downcast_ref::<Chatter>().unwrap().got >= 1
    });
    assert!(sat, "every node hears at least one broadcast");
    rt.shutdown();
}

#[test]
fn chaos_wire_masks_faults_and_still_delivers_everything() {
    let n = 4;
    let hops = 2;
    let cfg = NetConfig {
        faults: FaultPlan::new(0xB61A, FaultConfig::chaos()),
        seed: 7,
        ..NetConfig::default()
    };
    let mut rt = build(n, hops, cfg);
    let out = rt.run_transport(1_000_000);
    assert!(
        out.quiescent,
        "fault masking must reconstruct reliable links (delivered {})",
        out.delivered
    );
    // Reliable-link semantics: exactly the same delivery count as a
    // clean wire — n broadcasts + per-pair bounce chains.
    let expected = (n * n) as u64 + (n * n) as u64 * hops;
    assert_eq!(out.delivered, expected);

    let m = rt.metrics_snapshot();
    // The chaos profile (8% drop, 6% dup, 6% delay, 1.5% reset, one
    // partition window per link) must exercise the masking paths.
    assert!(m.net_retransmits > 0, "drops must force retransmissions");
    assert!(m.net_dup_frames > 0, "dups/retransmits must hit dedup");
    assert!(
        m.net_outbox_dropped == 0,
        "no peer is down: nothing surfaced"
    );
    rt.shutdown();
}

#[test]
fn mid_frame_resets_force_reconnects() {
    let n = 3;
    // Reset-heavy profile: reconnect/resync is the dominant path.
    let cfg = NetConfig {
        faults: FaultPlan::new(
            0x5EED,
            FaultConfig {
                reset_per_mille: 300,
                ..FaultConfig::default()
            },
        ),
        ..NetConfig::default()
    };
    let mut rt = build(n, 3, cfg);
    let out = rt.run_transport(1_000_000);
    assert!(out.quiescent, "resets must be masked");
    let m = rt.metrics_snapshot();
    assert!(m.net_reconnects > 0, "30% resets must force reconnects");
    assert!(m.net_retransmits > 0, "torn frames must be retransmitted");
    rt.shutdown();
}

#[test]
fn observer_logs_merge_into_a_dense_causal_trace() {
    let n = 3;
    let mut b = TcpRuntimeBuilder::new(NetConfig::default());
    for _ in 0..n {
        // Observer: one "heard" op per delivery processed.
        let mut last = 0u64;
        let obs: NodeObserver<u64> = Box::new(move |proc_, out| {
            let c = proc_.as_any().downcast_ref::<Chatter>().unwrap();
            while last < c.got {
                last += 1;
                out.push(OpEvent {
                    step: 0,
                    process: 0, // filled by nothing; process set below
                    kind: "heard",
                    ts: last,
                    values: vec![last],
                });
            }
        });
        b = b.add_observed(Box::new(Chatter::new(1)), obs);
    }
    let mut rt = b.build().expect("bind localhost");
    let out = rt.run_transport(100_000);
    assert!(out.quiescent);
    let delivered = out.delivered;
    let trace = rt.take_trace(|_| 0);
    // Every delivery appears, densely stepped, depth-monotone.
    assert_eq!(trace.events().len() as u64, delivered);
    for (i, ev) in trace.events().iter().enumerate() {
        assert_eq!(ev.step, i as u64);
        if i > 0 {
            assert!(ev.depth >= trace.events()[i - 1].depth);
        }
    }
    // One "heard" op per delivery, each stepped after its parent.
    assert_eq!(trace.ops().len() as u64, delivered);
}
