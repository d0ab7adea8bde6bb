//! The in-process multi-node TCP runtime: `n` [`TcpNode`]s over
//! localhost sockets, driven behind the [`Transport`] trait so every
//! simulator-facing harness (reports, spec batteries, conformance
//! checking) runs unchanged over real TCP.
//!
//! Construction wires everything up with protocol execution latched:
//! listeners are bound on ephemeral localhost ports, each node learns
//! every peer's address, one [`PollerPool`] spawns to own every socket
//! of the system, and nothing runs `on_start` until the first `run_*`
//! call releases the shared `go` latch — so a freshly built runtime is
//! inert, like a freshly built `Simulation`.
//!
//! The thread budget is fixed at build time: the pool's
//! `min(4, cores)` poller threads plus one event thread per node.
//!
//! # Quiescence vs budget
//!
//! [`Transport::run_transport`] returns when the system quiesces, when
//! `budget` deliveries have happened, or at the wall-clock safety
//! deadline. Unlike the simulator, hitting the budget does not *pause*
//! the system — threads keep running until [`TcpRuntime::shutdown`] —
//! so a budget return is a sampling point, not a freeze. Quiescence is
//! confirmed by the generation-stamped protocol
//! ([`SharedCounters::confirm_quiescent`]): two balanced reads of the
//! intent/retirement counters bracketing an unchanged generation,
//! sound without any sleep.

use crate::config::NetConfig;
use crate::counters::SharedCounters;
use crate::node::{NodeSpec, TcpNode};
use crate::poller::PollerPool;
use crate::trace_merge::merge_traces;
use bgla_codec::Wire;
use bgla_simnet::{
    Metrics, NodeObserver, Process, ProcessId, RunOutcome, Trace, Transport, WireMessage,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A process plus its optional per-node op observer, as collected by
/// the builder.
type ObservedProcess<M> = (Box<dyn Process<M>>, Option<NodeObserver<M>>);

/// A per-node predicate for [`Transport::run_until_all`]-style waits.
type NodePred<'a, M> = &'a mut dyn FnMut(ProcessId, &dyn Process<M>) -> bool;

/// Builder: collect processes (and optional observers), then
/// [`TcpRuntimeBuilder::build`] to bind sockets and spawn threads.
pub struct TcpRuntimeBuilder<M> {
    cfg: NetConfig,
    procs: Vec<ObservedProcess<M>>,
}

impl<M: WireMessage + Wire + 'static> TcpRuntimeBuilder<M> {
    /// A builder with the given transport configuration.
    pub fn new(cfg: NetConfig) -> TcpRuntimeBuilder<M> {
        TcpRuntimeBuilder {
            cfg,
            procs: Vec::new(),
        }
    }

    /// Adds a process (its id is its insertion order).
    #[allow(clippy::should_implement_trait)] // appends a process, not arithmetic
    pub fn add(mut self, proc: Box<dyn Process<M>>) -> Self {
        self.procs.push((proc, None));
        self
    }

    /// Adds a process with a per-node op observer (for trace
    /// recording; see [`TcpRuntime::take_trace`]).
    pub fn add_observed(mut self, proc: Box<dyn Process<M>>, obs: NodeObserver<M>) -> Self {
        self.procs.push((proc, Some(obs)));
        self
    }

    /// Binds one localhost listener per node, distributes the address
    /// map, spawns the poller pool, and wires every node into it
    /// (latched — nothing executes yet).
    pub fn build(self) -> std::io::Result<TcpRuntime<M>> {
        let n = self.procs.len();
        let mut listeners = Vec::with_capacity(n);
        let mut addrs: Vec<SocketAddr> = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }
        let shared = Arc::new(SharedCounters::default());
        let pool = PollerPool::spawn();
        let mut nodes = Vec::with_capacity(n);
        for (me, ((proc, observer), listener)) in self.procs.into_iter().zip(listeners).enumerate()
        {
            let peers = addrs
                .iter()
                .enumerate()
                .map(|(j, a)| if j == me { None } else { Some(*a) })
                .collect();
            nodes.push(TcpNode::spawn(
                NodeSpec {
                    me,
                    n,
                    proc,
                    observer,
                    listener,
                    peers,
                },
                self.cfg,
                shared.clone(),
                &pool,
            )?);
        }
        Ok(TcpRuntime {
            nodes,
            shared,
            pool,
            cfg: self.cfg,
            stopped: false,
        })
    }
}

/// A running (or latched) multi-node TCP system. Implements
/// [`Transport`]; drop or [`TcpRuntime::shutdown`] stops every thread.
pub struct TcpRuntime<M> {
    nodes: Vec<TcpNode<M>>,
    shared: Arc<SharedCounters>,
    pool: PollerPool,
    cfg: NetConfig,
    stopped: bool,
}

impl<M: WireMessage + Wire + 'static> TcpRuntime<M> {
    /// The poller pool driving this runtime's sockets (exposed so
    /// tests can assert the thread budget).
    pub fn poller_threads(&self) -> usize {
        self.pool.threads()
    }

    fn all_satisfy(&self, pred: &mut dyn FnMut(ProcessId, &dyn Process<M>) -> bool) -> bool {
        let mut all = true;
        for (i, node) in self.nodes.iter().enumerate() {
            let mut ok = false;
            node.with_process(&mut |p| ok = pred(i, p));
            if !ok {
                all = false;
                break;
            }
        }
        all
    }

    fn wait(&mut self, budget: u64, mut pred: Option<NodePred<'_, M>>) -> (RunOutcome, bool) {
        self.shared.go.store(true, Ordering::SeqCst);
        let n = self.nodes.len();
        let deadline = Instant::now() + Duration::from_millis(self.cfg.deadline_ms);
        loop {
            std::thread::sleep(Duration::from_millis(3));
            let delivered = self.shared.delivered.load(Ordering::SeqCst);
            if let Some(p) = pred.as_mut() {
                if self.all_satisfy(p) {
                    return (
                        RunOutcome {
                            delivered,
                            quiescent: self.shared.confirm_quiescent(n),
                        },
                        true,
                    );
                }
            }
            if self.shared.confirm_quiescent(n) {
                let delivered = self.shared.delivered.load(Ordering::SeqCst);
                let sat = pred.as_mut().map(|p| self.all_satisfy(p)).unwrap_or(true);
                return (
                    RunOutcome {
                        delivered,
                        quiescent: true,
                    },
                    sat,
                );
            }
            if delivered >= budget || Instant::now() >= deadline {
                return (
                    RunOutcome {
                        delivered,
                        quiescent: false,
                    },
                    false,
                );
            }
        }
    }

    /// Stops the runtime and merges every node's local log into a
    /// simulator-format [`Trace`] (see [`crate::trace_merge`]).
    /// `op_priority` orders same-step ops — pass the protocol layer's
    /// op priority for conformance work.
    pub fn take_trace(&mut self, op_priority: fn(&str) -> u8) -> Trace {
        self.shutdown();
        let logs = self.nodes.iter().map(|nd| nd.take_log()).collect();
        merge_traces(logs, op_priority)
    }
}

impl<M> TcpRuntime<M> {
    /// Stops every thread (idempotent): the stop latch drains the
    /// event threads, then the poller pool is joined. Free of `M`'s
    /// bounds so that `Drop` runs the same sequence.
    pub fn shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.stop.store(true, Ordering::SeqCst);
        // Release event threads still latched on `go`.
        self.shared.go.store(true, Ordering::SeqCst);
        for node in &mut self.nodes {
            node.join();
        }
        self.pool.shutdown();
    }
}

impl<M> Drop for TcpRuntime<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<M: WireMessage + Wire + 'static> Transport<M> for TcpRuntime<M> {
    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn with_process(&self, p: ProcessId, f: &mut dyn FnMut(&dyn Process<M>)) {
        self.nodes[p].with_process(f);
    }

    fn metrics_snapshot(&self) -> Metrics {
        let mut m = Metrics::new(self.nodes.len());
        for node in &self.nodes {
            m.merge(&node.metrics());
        }
        m
    }

    fn run_transport(&mut self, budget: u64) -> RunOutcome {
        self.wait(budget, None).0
    }

    fn run_until_all(
        &mut self,
        budget: u64,
        pred: &mut dyn FnMut(ProcessId, &dyn Process<M>) -> bool,
    ) -> (RunOutcome, bool) {
        self.wait(budget, Some(pred))
    }
}
