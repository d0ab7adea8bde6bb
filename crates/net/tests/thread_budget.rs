//! The thread-budget pin: an n-node runtime spends `pool + n` threads
//! regardless of link count or fault pressure, and gives them all back
//! on shutdown.
//!
//! A reset-heavy plan multiplies accepted sockets without bound, so a
//! runtime that spent a thread per socket or per link would grow with
//! it. This one must stay at exactly the fixed poller pool plus one
//! event thread per node even while such a plan churns reconnects.
//!
//! Lives in its own integration-test binary on purpose: thread
//! counting via `/proc/self/task` is only meaningful when no sibling
//! test spawns threads in the same process.

use bgla_net::{FaultConfig, FaultPlan, NetConfig, TcpRuntimeBuilder};
use bgla_simnet::{Context, Process, ProcessId, Transport};
use std::any::Any;

/// Threads in this process right now (Linux: one entry per task).
fn live_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task readable")
        .count()
}

/// Broadcasts once, bounces replies a few hops so links stay busy
/// while resets churn them.
struct Chatter {
    hops: u64,
}

impl Process<u64> for Chatter {
    fn on_start(&mut self, ctx: &mut Context<u64>) {
        ctx.broadcast(self.hops);
    }
    fn on_message(&mut self, from: ProcessId, msg: u64, ctx: &mut Context<u64>) {
        if msg > 0 {
            ctx.send(from, msg - 1);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn runtime_threads_stay_within_pool_plus_one_per_node() {
    let n = 6;
    let cfg = NetConfig {
        // Reset-heavy: every link dies and redials over and over, so a
        // thread-per-connection design would grow without bound here.
        faults: FaultPlan::new(
            0x7B0D,
            FaultConfig {
                drop_per_mille: 40,
                reset_per_mille: 250,
                ..FaultConfig::default()
            },
        ),
        seed: 11,
        ..NetConfig::default()
    };

    let base = live_threads();
    let mut rt = TcpRuntimeBuilder::new(cfg)
        .add(Box::new(Chatter { hops: 4 }))
        .add(Box::new(Chatter { hops: 4 }))
        .add(Box::new(Chatter { hops: 4 }))
        .add(Box::new(Chatter { hops: 4 }))
        .add(Box::new(Chatter { hops: 4 }))
        .add(Box::new(Chatter { hops: 4 }))
        .build()
        .expect("bind localhost");
    let budget = rt.poller_threads() + n;

    let out = rt.run_transport(1_000_000);
    assert!(out.quiescent, "reset chaos must still be masked");

    // Peak check *while the system is live*: all sockets are up, the
    // plan has forced reconnect churn, and the count still fits the
    // fixed budget.
    let live = live_threads();
    assert!(
        live <= base + budget,
        "thread budget exceeded: {base} before build, {live} live, \
         budget {budget} (pool {} + {n} event threads)",
        rt.poller_threads(),
    );

    let m = rt.metrics_snapshot();
    assert!(
        m.net_reconnects > 0,
        "the reset plan must actually churn connections"
    );

    // Shutdown gives every thread back.
    rt.shutdown();
    let after = live_threads();
    assert!(
        after <= base,
        "threads leaked across shutdown: {base} before, {after} after"
    );
}
