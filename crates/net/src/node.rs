//! One TCP node: a single event thread that owns the [`Process`], with
//! every socket of the node (listener, inbound connections, outbound
//! links) owned by the shared [`PollerPool`].
//!
//! # Thread anatomy (per node)
//!
//! * **Event thread** — the only thread this module spawns. Owns the
//!   `Box<dyn Process<M>>`, consumes the raw inbox of
//!   `(from, depth, payload)` deliveries pushed by poller threads,
//!   decodes, runs `on_message`, meters sends, and routes outbound
//!   copies to the pool's per-link state machines. The only thread
//!   that touches protocol state; [`TcpNode::with_process`] visits
//!   are serialized against it by the node lock.
//! * Everything else — accepting, reading, dedup/reorder, acking,
//!   dialing, fault injection, retransmission — happens on the pool's
//!   fixed poller threads ([`crate::poller`]). Total runtime threads
//!   for an n-node system: pool size + n.
//!
//! # Serialization outside the node lock
//!
//! Encoding outbound payloads is pure CPU work, and doing it under
//! the node lock would block `with_process` visitors for its
//! duration. So the loop splits each delivery into two halves: under
//! the lock it runs the process, records the delivery log, and meters
//! the outbound messages (metrics live in the core); after
//! `drop(core)` it encodes payloads and hands them to the pool. The
//! quiescence order holds — every outgoing copy's intent is stamped
//! ([`SharedCounters::note_enqueue`]) before the incoming message is
//! retired — so "pending reaches zero" means no protocol
//! message exists anywhere.
//!
//! # Causal depth over the wire
//!
//! Every DATA frame carries the causal depth its message would have as
//! a simulator envelope (sender's clock + 1); a receiving node joins
//! its clock to it exactly as the simulator does. Self-addressed
//! copies skip the socket but take the same encode → sink → decode
//! path as any other copy, so *every* protocol message is exercised by
//! real encode/decode.

use crate::config::NetConfig;
use crate::counters::SharedCounters;
use crate::link::ReceiverLink;
use crate::poller::{
    enqueue_arc, lock, Entry, ListenerEntry, NodeNet, NodeStats, OutLink, PollerPool,
};
use crate::trace_merge::{LocalDelivery, LocalOp, NodeLog};
use bgla_codec::{decode_payload, encode_payload, Wire};
use bgla_simnet::{Context, Metrics, NodeObserver, Process, ProcessId, WireMessage};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything a node needs at spawn time.
pub struct NodeSpec<M> {
    /// This node's process id.
    pub me: ProcessId,
    /// Total processes in the system.
    pub n: usize,
    /// The protocol state machine this node drives.
    pub proc: Box<dyn Process<M>>,
    /// Optional per-node op observer (for trace recording).
    pub observer: Option<NodeObserver<M>>,
    /// Bound listener for inbound connections (bind before spawn so
    /// peers can be told the address).
    pub listener: TcpListener,
    /// Peer addresses indexed by process id; `None` at `me` (and for
    /// absent peers, to which sends are surfaced as drops).
    pub peers: Vec<Option<SocketAddr>>,
}

/// State guarded by the node lock: the process plus everything the
/// event thread updates per delivery.
struct NodeCore<M> {
    proc: Box<dyn Process<M>>,
    observer: Option<NodeObserver<M>>,
    depth: u64,
    local_events: u64,
    log: NodeLog,
    metrics: Metrics,
}

fn observe<M>(core: &mut NodeCore<M>, after: Option<usize>) {
    let NodeCore {
        proc,
        observer,
        log,
        ..
    } = core;
    if let Some(obs) = observer {
        let mut evs = Vec::new();
        obs(proc.as_ref(), &mut evs);
        for ev in evs {
            log.ops.push(LocalOp {
                after_delivery: after,
                ev,
            });
        }
    }
}

type RawInbox = mpsc::Receiver<(ProcessId, u64, Vec<u8>)>;

/// Outbound fan-out state owned by the event thread.
struct Dispatcher {
    me: ProcessId,
    links: Vec<Option<Arc<OutLink>>>,
    self_tx: mpsc::Sender<(ProcessId, u64, Vec<u8>)>,
    shared: Arc<SharedCounters>,
    pool: PollerPool,
}

impl Dispatcher {
    /// Meters one event's outbound messages into the core's metrics.
    /// Called under the node lock; pure accounting, no serialization.
    fn meter<M: WireMessage>(&self, core: &mut NodeCore<M>, msgs: &[(ProcessId, M)]) {
        for (_, msg) in msgs {
            let (bytes, proofs) = msg.metered();
            core.metrics.record_send(self.me, msg.kind(), bytes, proofs);
        }
    }

    /// Encodes and routes one event's outbound messages — called
    /// *after* the node lock is dropped, so serialization never runs
    /// under it. Stamps each copy's enqueue intent before the copy
    /// becomes visible anywhere (the caller retires the incoming
    /// message only after this returns — that order is the quiescence
    /// soundness argument).
    fn route<M: WireMessage + Wire>(&self, msgs: Vec<(ProcessId, M)>, out_depth: u64) {
        let mut woke_pool = false;
        for (to, msg) in msgs {
            self.shared.note_enqueue();
            let payload = encode_payload(&msg);
            if to == self.me {
                // No socket for self-delivery, but the same codec
                // round-trip as any other copy: the event loop decodes
                // this payload exactly like a remote one.
                let _ = self.self_tx.send((self.me, out_depth, payload));
            } else if let Some(link) = self.links.get(to).and_then(|l| l.as_ref()) {
                if enqueue_arc(link, self.pool.inner(), out_depth, payload) {
                    woke_pool = true;
                } else {
                    // Bounded outbox overflow: surfaced, not masked.
                    self.shared.note_retired();
                }
            } else {
                // No link to this peer (absent in the address map).
                self.shared.note_retired();
            }
        }
        if woke_pool {
            self.pool.inner().wake_all();
        }
    }
}

/// A running TCP node on the event-driven runtime. Dropping it does
/// *not* stop its event thread — set the shared `stop` latch and call
/// [`TcpNode::join`] (the runtime does both in its `shutdown`).
pub struct TcpNode<M> {
    me: ProcessId,
    core: Arc<Mutex<NodeCore<M>>>,
    out: Vec<Option<Arc<OutLink>>>,
    net: Arc<NodeNet>,
    stats: Arc<NodeStats>,
    threads: Vec<JoinHandle<()>>,
}

impl<M: WireMessage + Wire + 'static> TcpNode<M> {
    /// Wires the node into the pool (listener + outbound links) and
    /// spawns its event thread. Protocol execution (`on_start`) is
    /// held until the shared `go` latch is set, so a whole system can
    /// be wired up before any message flows.
    pub fn spawn(
        spec: NodeSpec<M>,
        cfg: NetConfig,
        shared: Arc<SharedCounters>,
        pool: &PollerPool,
    ) -> std::io::Result<TcpNode<M>> {
        let NodeSpec {
            me,
            n,
            proc,
            observer,
            listener,
            peers,
        } = spec;
        listener.set_nonblocking(true)?;
        let epoch = pool.inner().epoch;
        let core = Arc::new(Mutex::new(NodeCore {
            proc,
            observer,
            depth: 0,
            local_events: 0,
            log: NodeLog::default(),
            metrics: Metrics::new(n),
        }));
        let stats = Arc::new(NodeStats::default());
        let (inbox_tx, inbox_rx) = mpsc::channel::<(ProcessId, u64, Vec<u8>)>();

        // Receive side: one listener entry; accepted connections become
        // pool entries feeding the raw inbox.
        let net = Arc::new(NodeNet {
            me,
            rx_links: (0..n).map(|_| Mutex::new(ReceiverLink::new())).collect(),
            sink: inbox_tx.clone(),
            stats: stats.clone(),
        });
        pool.inner()
            .register(Entry::Listener(Arc::new(ListenerEntry {
                listener,
                node: net.clone(),
            })));

        // Send side: one pool-owned link state machine per peer.
        let mut out: Vec<Option<Arc<OutLink>>> = vec![None; n];
        for (to, addr) in peers.iter().enumerate() {
            let Some(addr) = *addr else { continue };
            if to == me {
                continue;
            }
            // Distinct deterministic stream per directed link.
            let link_seed = cfg
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(((me as u64) << 32) | to as u64);
            let link = OutLink::new(
                me,
                to,
                addr,
                cfg.faults,
                cfg.link,
                link_seed,
                cfg.dial_backoff_ms,
                cfg.dial_backoff_max_ms,
                stats.clone(),
                epoch,
            );
            out[to] = Some(link.clone());
            pool.inner().register(Entry::Out(link));
        }

        // The event thread — the node's only thread.
        let mut threads = Vec::new();
        {
            let core = core.clone();
            let shared2 = shared.clone();
            let disp = Dispatcher {
                me,
                links: out.clone(),
                self_tx: inbox_tx,
                shared,
                pool: pool.clone(),
            };
            threads.push(std::thread::spawn(move || {
                event_loop(me, n, core, inbox_rx, disp, shared2)
            }));
        }

        Ok(TcpNode {
            me,
            core,
            out,
            net,
            stats,
            threads,
        })
    }
}

impl<M> TcpNode<M> {
    /// This node's process id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// Visits the process state at an event boundary (holds the node
    /// lock, so the event thread is between deliveries).
    pub fn with_process(&self, f: &mut dyn FnMut(&dyn Process<M>)) {
        let core = lock(&self.core);
        f(core.proc.as_ref());
    }

    /// Snapshot of this node's accounting: modeled protocol metering
    /// from the event thread, plus the measured frame/byte counters
    /// and the reliability counters summed over its links.
    pub fn metrics(&self) -> Metrics {
        let mut m = lock(&self.core).metrics.clone();
        m.net_frames = self.stats.frames.load(Ordering::Relaxed);
        m.net_frame_bytes = self.stats.bytes.load(Ordering::Relaxed);
        for link in self.out.iter().flatten() {
            let s = lock(&link.sender);
            m.net_retransmits += s.retransmits;
            m.net_outbox_dropped += s.overflow_dropped;
            m.net_reconnects += link.reconnects.load(Ordering::Relaxed);
        }
        for rx in self.net.rx_links.iter() {
            m.net_dup_frames += lock(rx).dups;
        }
        m
    }

    /// Takes the node's delivery/op log (for trace merging). Call
    /// after the threads have stopped for a complete history.
    pub fn take_log(&self) -> NodeLog {
        std::mem::take(&mut lock(&self.core).log)
    }

    /// Joins this node's event thread. The shared `stop` latch must
    /// already be set or this blocks until it is.
    pub fn join(&mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

fn event_loop<M: WireMessage + Wire + 'static>(
    me: ProcessId,
    n: usize,
    core: Arc<Mutex<NodeCore<M>>>,
    inbox: RawInbox,
    disp: Dispatcher,
    shared: Arc<SharedCounters>,
) {
    while !shared.go.load(Ordering::SeqCst) {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if shared.stop.load(Ordering::SeqCst) {
        return;
    }
    let start_msgs = {
        let mut core = lock(&core);
        let mut ctx = Context::for_embedding(me, n, 0, 0);
        core.proc.on_start(&mut ctx);
        observe(&mut core, None);
        let msgs = ctx.take_outbox();
        disp.meter(&mut core, &msgs);
        msgs
    };
    // Start-up sends begin causal chains: depth 1 (simulator rule).
    // Encoded and routed outside the lock.
    disp.route(start_msgs, 1);
    // Start barrier: only once every node's initial sends are counted
    // may anyone trust a zero `pending` read.
    shared.started.fetch_add(1, Ordering::SeqCst);
    loop {
        match inbox.recv_timeout(Duration::from_millis(2)) {
            Ok((from, depth, payload)) => {
                let Ok(msg) = decode_payload::<M>(&payload) else {
                    // Undecodable payload from an identified peer:
                    // this copy will never be processed; retire it so
                    // the system can still quiesce.
                    shared.note_retired();
                    continue;
                };
                let (msgs, out_depth) = {
                    let mut core = lock(&core);
                    core.depth = core.depth.max(depth);
                    core.local_events += 1;
                    let abs_depth = core.depth;
                    core.log.deliveries.push(LocalDelivery {
                        from,
                        kind: msg.kind(),
                        depth: abs_depth,
                        bytes: msg.wire_size(),
                    });
                    let after = core.log.deliveries.len() - 1;
                    let mut ctx = Context::for_embedding(me, n, core.depth, core.local_events);
                    core.proc.on_message(from, msg, &mut ctx);
                    observe(&mut core, Some(after));
                    core.metrics.delivered += 1;
                    let out_depth = core.depth + 1;
                    let msgs = ctx.take_outbox();
                    disp.meter(&mut core, &msgs);
                    (msgs, out_depth)
                };
                // Encode + hand off outside the lock; every outgoing
                // intent is stamped before the incoming retires.
                disp.route(msgs, out_depth);
                shared.delivered.fetch_add(1, Ordering::SeqCst);
                shared.note_retired();
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}
